package dash

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// DASH MPD export: the JSON Manifest is this repository's native format
// (the one the client reads), but real deployments speak MPEG-DASH Media
// Presentation Descriptions. WriteMPD renders a Manifest as a static
// on-demand MPD with one video AdaptationSet and SegmentTemplate
// addressing that matches this package's segment URLs.
//
// Standard MPDs do not carry exact per-segment sizes (players learn them
// from segment indexes); since per-chunk sizes are exactly the information
// VBR-aware adaptation needs (§3.2), the writer embeds them in a
// SupplementalProperty descriptor (scheme "urn:cava:segment-sizes:2018",
// value = comma-separated sizes in bits), mirroring how HLS added
// EXT-X-BITRATE. Readers that do not know the scheme ignore it, as the
// DASH spec requires.

const segmentSizesScheme = "urn:cava:segment-sizes:2018"

// mpdXML mirrors the subset of the MPD schema we emit.
type mpdXML struct {
	XMLName                   xml.Name `xml:"MPD"`
	Xmlns                     string   `xml:"xmlns,attr"`
	Type                      string   `xml:"type,attr"`
	Profiles                  string   `xml:"profiles,attr"`
	MediaPresentationDuration string   `xml:"mediaPresentationDuration,attr"`
	MinBufferTime             string   `xml:"minBufferTime,attr"`
	ProgramInformation        *struct {
		Title string `xml:"Title"`
	} `xml:"ProgramInformation,omitempty"`
	Period periodXML `xml:"Period"`
}

type periodXML struct {
	ID             string          `xml:"id,attr"`
	Duration       string          `xml:"duration,attr"`
	AdaptationSets []adaptationXML `xml:"AdaptationSet"`
}

type adaptationXML struct {
	ContentType      string              `xml:"contentType,attr"`
	SegmentAlignment bool                `xml:"segmentAlignment,attr"`
	FrameRate        string              `xml:"frameRate,attr,omitempty"`
	Representations  []representationXML `xml:"Representation"`
}

type representationXML struct {
	ID              string            `xml:"id,attr"`
	Width           int               `xml:"width,attr"`
	Height          int               `xml:"height,attr"`
	Bandwidth       int64             `xml:"bandwidth,attr"`
	Codecs          string            `xml:"codecs,attr,omitempty"`
	SegmentTemplate segmentTplXML     `xml:"SegmentTemplate"`
	Supplemental    []supplementalXML `xml:"SupplementalProperty"`
}

type segmentTplXML struct {
	Media       string `xml:"media,attr"`
	Timescale   int    `xml:"timescale,attr"`
	Duration    int    `xml:"duration,attr"`
	StartNumber int    `xml:"startNumber,attr"`
}

type supplementalXML struct {
	SchemeIDURI string `xml:"schemeIdUri,attr"`
	Value       string `xml:"value,attr"`
}

// isoDuration renders seconds as an ISO-8601 duration (PTxxS form).
func isoDuration(sec float64) string {
	return fmt.Sprintf("PT%gS", sec)
}

// WriteMPD renders the manifest as a static on-demand DASH MPD.
func WriteMPD(w io.Writer, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	duration := float64(m.NumSegments()) * m.ChunkDurSec
	doc := mpdXML{
		Xmlns:                     "urn:mpeg:dash:schema:mpd:2011",
		Type:                      "static",
		Profiles:                  "urn:mpeg:dash:profile:isoff-on-demand:2011",
		MediaPresentationDuration: isoDuration(duration),
		MinBufferTime:             isoDuration(m.ChunkDurSec * 2),
		Period: periodXML{
			ID:       "0",
			Duration: isoDuration(duration),
		},
	}
	doc.ProgramInformation = &struct {
		Title string `xml:"Title"`
	}{Title: m.VideoID}

	aset := adaptationXML{
		ContentType:      "video",
		SegmentAlignment: true,
		FrameRate:        strconv.Itoa(int(math.Round(m.FPS))),
	}
	for _, t := range m.Tracks {
		sizes := make([]string, len(t.SegmentBits))
		for i, s := range t.SegmentBits {
			sizes[i] = strconv.FormatInt(int64(math.Round(s)), 10)
		}
		aset.Representations = append(aset.Representations, representationXML{
			ID:        strconv.Itoa(t.ID),
			Width:     t.Width,
			Height:    t.Height,
			Bandwidth: int64(math.Round(t.DeclaredBitrateBps)),
			Codecs:    "avc1.640028",
			SegmentTemplate: segmentTplXML{
				Media:       "seg/$RepresentationID$/$Number$",
				Timescale:   1000, // milliseconds, so fractional chunk durations survive
				Duration:    int(math.Round(m.ChunkDurSec * 1000)),
				StartNumber: 0,
			},
			Supplemental: []supplementalXML{
				{SchemeIDURI: segmentSizesScheme, Value: strings.Join(sizes, ",")},
				{SchemeIDURI: "urn:cava:peak-bitrate:2018",
					Value: strconv.FormatInt(int64(math.Round(t.PeakBitrateBps)), 10)},
			},
		})
	}
	doc.Period.AdaptationSets = []adaptationXML{aset}

	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("dash: encoding MPD: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}
