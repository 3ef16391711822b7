package sdn

// Snapshot support: SwitchState captures one switch's mutable state —
// the programmed flow table and the transaction-id counter. Ports,
// local prefixes and callbacks are wiring, rebuilt identically by
// construction.

// SwitchState is the serializable state of one Switch.
type SwitchState struct {
	// Flows lists the programmed flow entries in deterministic order.
	Flows []FlowEntry `json:"flows,omitempty"`
	// NextXid is the last OpenFlow transaction id assigned.
	NextXid uint32 `json:"next_xid"`
}

// State captures the switch's serializable state.
func (s *Switch) State() SwitchState {
	return SwitchState{
		Flows:   s.table.Entries(),
		NextXid: s.nextXid,
	}
}

// RestoreState overlays a captured state onto a freshly built switch
// with the identical wiring.
func (s *Switch) RestoreState(st SwitchState) {
	for _, e := range st.Flows {
		s.table.Upsert(e)
	}
	s.nextXid = st.NextXid
}
