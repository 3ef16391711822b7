package artifact

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReportManifest holds ValidateReportManifest, the check labreport
// -check runs on a manifest it did not write, to two properties: it
// never panics, and a manifest it accepts decodes, re-encodes with
// Encode, validates again and decodes to the same value. Mutations
// that keep a manifest's seal — another spelling of a number, an
// escaped character, white space — are what reach the second half.
func FuzzReportManifest(f *testing.F) {
	valid, broken := reportManifestCases(f)
	f.Add(valid)
	for _, b := range broken {
		f.Add(b)
	}
	f.Add(append(valid, "\n\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ValidateReportManifest(data) != nil {
			return
		}
		var m ReportManifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("accepted %q, which does not decode: %v", data, err)
		}
		again, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted %q, which does not re-encode: %v", data, err)
		}
		if err := ValidateReportManifest(again); err != nil {
			t.Fatalf("accepted %q, re-encoded as %q, which is refused: %v", data, again, err)
		}
		var m2 ReportManifest
		if err := json.Unmarshal(again, &m2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(omitEmpty(m), omitEmpty(m2)) {
			t.Fatalf("accepted %q decodes to %+v, its re-encoding to %+v", data, m, m2)
		}
	})
}

// omitEmpty is m as its encoding records it: an empty epoch_svgs list
// is omitted, so it decodes as none.
func omitEmpty(m ReportManifest) ReportManifest {
	figs := make([]ReportFigure, len(m.Figures))
	for i, f := range m.Figures {
		if len(f.EpochSVGs) == 0 {
			f.EpochSVGs = nil
		}
		figs[i] = f
	}
	m.Figures = figs
	return m
}
