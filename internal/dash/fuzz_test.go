package dash

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets for the manifest parsers (JSON, MPD XML, HLS playlists):
// arbitrary input must never panic, and accepted input must validate.

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

func FuzzReadMPD(f *testing.F) {
	var seed bytes.Buffer
	WriteMPD(&seed, BuildManifest(testVideo()))
	f.Add(seed.String())
	f.Add(`<?xml version="1.0"?><MPD></MPD>`)
	f.Add(`<MPD><Period><AdaptationSet contentType="video"></AdaptationSet></Period></MPD>`)
	f.Add(`not xml at all`)
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadMPD(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed MPD fails validation: %v", err)
		}
	})
}

func FuzzParseISODuration(f *testing.F) {
	f.Add("PT600S")
	f.Add("PT1H2M3S")
	f.Add("P1D")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		v, err := parseISODuration(in)
		if err == nil && (v < 0 || v != v) {
			t.Fatalf("accepted duration %q parsed to %v", in, v)
		}
	})
}
