package main

// Example runs the whole dataset pipeline and pins its report.
func Example() {
	main()
	// Output:
	// topology: 30 ASes, 63 links (63 with relationships)
	// converged: 30/30 ASes reach every prefix (valley-free policies
	//   can legitimately hide some stub-to-stub routes)
	// withdrawal of AS30's prefix converged in 19.418s
	// controller stats: {Recomputes:10 FlowModsSent:216 RouteEvents:89 AnnounceCommands:1586 WithdrawCommands:142}
}
