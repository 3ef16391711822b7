package main

// Example streams probes through both deployments and pins the loss
// each one shows.
func Example() {
	main()
	// Output:
	// streaming 1m0s of probes (50ms apart) across a 6-AS ring;
	// the mid-path link AS3-AS4 fails 10s in
	//
	// pure BGP:        loss   3.7%  (~2.2s of dead air)
	// half-ring SDN:   loss   0.4%  (~250ms of dead air)
}
