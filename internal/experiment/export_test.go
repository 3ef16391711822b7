package experiment

// ModelKeepalives, while on, leaves the sessions of every experiment
// built unmated, each sending and hearing its KEEPALIVEs as frames —
// the reference the arithmetic of quiet pairs is held to, for tests
// outside the package that build through lab.
func ModelKeepalives(on bool) { modelledKeepalives = on }

// Racing reports whether the test binary was built with -race, whose
// runtime makes the random-trial tests several times slower.
func Racing() bool { return raceEnabled }
