package dash

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz target for the manifest parser (the JSON format is the only one the
// client reads): arbitrary input must never panic, and accepted input must
// validate.

func FuzzDecodeManifest(f *testing.F) {
	var seed bytes.Buffer
	BuildManifest(testVideo()).EncodeTo(&seed)
	f.Add(seed.String())
	f.Add(`{"video_id":"x","chunk_dur":2,"tracks":[]}`)
	f.Add(`{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, in string) {
		m, err := DecodeManifest(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded manifest fails validation: %v", err)
		}
	})
}
