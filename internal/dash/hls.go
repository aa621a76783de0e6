package dash

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// HLS interop. HLS is the other dominant ABR protocol; per the paper's
// §3.2 footnote, HLS recently added per-segment size information
// (EXT-X-BITRATE), which is what makes VBR-aware adaptation possible there.
// WriteHLSMaster/WriteHLSMedia render a Manifest as a master playlist plus
// one media playlist per track. The export is write-only: the repository's
// own client reads the MPD.

// WriteHLSMaster renders the master playlist. Media playlists are
// addressed as "track_<id>.m3u8".
func WriteHLSMaster(w io.Writer, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#EXTM3U")
	fmt.Fprintln(bw, "#EXT-X-VERSION:7")
	fmt.Fprintf(bw, "## video %s\n", m.VideoID)
	for _, t := range m.Tracks {
		fmt.Fprintf(bw, "#EXT-X-STREAM-INF:BANDWIDTH=%d,AVERAGE-BANDWIDTH=%d,RESOLUTION=%dx%d,FRAME-RATE=%.3f\n",
			int64(math.Round(t.PeakBitrateBps)), int64(math.Round(t.DeclaredBitrateBps)),
			t.Width, t.Height, m.FPS)
		fmt.Fprintf(bw, "track_%d.m3u8\n", t.ID)
	}
	return bw.Flush()
}

// WriteHLSMedia renders one track's media playlist with per-segment
// EXT-X-BITRATE tags (kbps, as the HLS spec defines).
func WriteHLSMedia(w io.Writer, m *Manifest, trackID int) error {
	if trackID < 0 || trackID >= len(m.Tracks) {
		return fmt.Errorf("dash: no track %d", trackID)
	}
	t := m.Tracks[trackID]
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#EXTM3U")
	fmt.Fprintln(bw, "#EXT-X-VERSION:7")
	fmt.Fprintf(bw, "#EXT-X-TARGETDURATION:%d\n", int(math.Ceil(m.ChunkDurSec)))
	fmt.Fprintln(bw, "#EXT-X-MEDIA-SEQUENCE:0")
	fmt.Fprintln(bw, "#EXT-X-PLAYLIST-TYPE:VOD")
	for i, bits := range t.SegmentBits {
		kbps := bits / m.ChunkDurSec / 1000
		fmt.Fprintf(bw, "#EXT-X-BITRATE:%d\n", int64(math.Round(kbps)))
		fmt.Fprintf(bw, "#EXTINF:%.3f,\n", m.ChunkDurSec)
		fmt.Fprintf(bw, "seg/%d/%d\n", trackID, i)
	}
	fmt.Fprintln(bw, "#EXT-X-ENDLIST")
	return bw.Flush()
}
