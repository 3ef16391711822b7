package figures

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/lab"
)

// FuzzParseCanonical holds the admission gate — labd admits exactly
// what lab.ParseCanonical accepts — to its contract on bytes it did
// not write: an input is refused with an error, or it is a spec in
// canonical form (the parsed sweep re-encodes to the input byte for
// byte) whose axis Sweep.Run accepts. Never a panic. Seeds: every
// registry spec at its defaults, one scheduled workload, one damping
// configuration, and fig2 with the retired settle_ns set.
func FuzzParseCanonical(f *testing.F) {
	seed := func(sw lab.Sweep, err error) {
		f.Helper()
		if err != nil {
			f.Fatal(err)
		}
		data, err := sw.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, name := range Names() {
		seed(Resolve(name, Overrides{}))
	}
	seed(Resolve("fig2", Overrides{Workload: "at 0s withdraw; at 3m announce"}))
	damped, err := Resolve("flap", Overrides{})
	damped.Base.Damping = &bgp.DampingConfig{HalfLife: 2 * time.Minute}
	seed(damped, err)
	fig2, err := Resolve("fig2", Overrides{})
	if err != nil {
		f.Fatal(err)
	}
	data, err := fig2.Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(data, []byte(`"settle_ns":0`), []byte(`"settle_ns":10000000000`), 1))

	stopped := make(chan struct{})
	close(stopped)
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := lab.ParseCanonical(data)
		if err != nil {
			return
		}
		back, err := sw.Canonical()
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("admitted spec is not its own canonical form (err %v):\nin:  %s\nout: %s", err, data, back)
		}
		// Run validates the axis, then claims its first run; told to
		// stop before that, it reports ErrStopped and has run nothing.
		sw.Runs, sw.Parallelism, sw.Stop = 1, 1, stopped
		if _, err := sw.Run(); !errors.Is(err, lab.ErrStopped) {
			t.Fatalf("admitted spec refused by Sweep.Run: %v\n%s", err, data)
		}
	})
}
