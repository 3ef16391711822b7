package labd

import "repro/internal/figures"

// The preset bridge: the figures registry exposed as named presets
// over the API. A preset submission resolves through figures.Resolve,
// the same function the `convergence` CLI maps its flags onto, so
// `labctl submit -exp fig2 -mrai 5s` and `convergence -exp fig2 -mrai
// 5s` produce the identical canonical spec, hence the identical
// content address, manifest and outputs.

// PresetOptions are the wire overrides for a preset submission.
type PresetOptions = figures.Overrides

// Preset is the wire listing of one registry entry.
type Preset struct {
	// Name is the registry key (the -exp value).
	Name string `json:"name"`
	// Title is the one-line description.
	Title string `json:"title"`
	// Desc is the documentation paragraph.
	Desc string `json:"desc"`
}

// Presets lists the experiment registry.
func Presets() []Preset {
	reg := figures.Registry()
	out := make([]Preset, len(reg))
	for i, s := range reg {
		out[i] = Preset{Name: s.Name, Title: s.Title, Desc: s.Desc}
	}
	return out
}

// BuildPreset resolves a named preset and its overrides into the
// sweep's canonical spec bytes.
func BuildPreset(name string, opt PresetOptions) ([]byte, error) {
	sweep, err := figures.Resolve(name, opt)
	if err != nil {
		return nil, err
	}
	return sweep.Canonical()
}
