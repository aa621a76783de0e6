// Command videogen generates the 16-video synthetic VBR dataset and either
// prints per-track statistics or writes DASH manifests (JSON) to a
// directory.
//
// Usage:
//
//	videogen -stats
//	videogen -out manifests/
//	videogen -video ED-youtube-h264 -chunks
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cava/internal/cliutil"
	"cava/internal/dash"
	"cava/internal/scene"
	"cava/internal/video"
)

// manifestWriters write one video's manifests into dir, by -format.
var manifestWriters = map[string]func(dir, id string, m *dash.Manifest) error{
	"json": func(dir, id string, m *dash.Manifest) error {
		return cliutil.WriteOutput(filepath.Join(dir, id+".json"), m.EncodeTo)
	},
	"mpd": func(dir, id string, m *dash.Manifest) error {
		return cliutil.WriteOutput(filepath.Join(dir, id+".mpd"), func(w io.Writer) error { return dash.WriteMPD(w, m) })
	},
	"hls": func(dir, id string, m *dash.Manifest) error {
		err := cliutil.WriteOutput(filepath.Join(dir, id+".m3u8"), func(w io.Writer) error { return dash.WriteHLSMaster(w, m) })
		for ti := 0; err == nil && ti < len(m.Tracks); ti++ {
			name := fmt.Sprintf("%s_track_%d.m3u8", id, ti)
			err = cliutil.WriteOutput(filepath.Join(dir, name), func(w io.Writer) error { return dash.WriteHLSMedia(w, m, ti) })
		}
		return err
	},
}

func main() {
	var (
		stats   = flag.Bool("stats", false, "print per-track statistics for the whole dataset")
		out     = flag.String("out", "", "write manifests to this directory")
		format  = flag.String("format", "json", "manifest format: json, mpd, or hls")
		videoID = flag.String("video", "", "with -chunks: which video to dump")
		chunks  = flag.Bool("chunks", false, "dump per-chunk sizes and categories for -video")
	)
	flag.Parse()
	cliutil.RejectArgs("videogen")

	switch {
	case *stats:
		for _, v := range video.Dataset() {
			fmt.Printf("%s (%s, %.0fs chunks, cap %.0fx, %d chunks)\n",
				v.ID(), v.Genre, v.ChunkDurSec, v.Cap, v.NumChunks())
			for _, t := range v.Tracks {
				fmt.Printf("  %-6s avg %6.2f Mbps  peak/avg %.2f  CoV %.2f\n",
					t.Res.Name, t.AvgBitrateBps/1e6, t.PeakToAvg(), t.CoV())
			}
		}
	case *chunks:
		v := video.ByID(*videoID)
		if v == nil {
			fmt.Fprintf(os.Stderr, "videogen: unknown video %q\n", *videoID)
			os.Exit(2)
		}
		cats := scene.ClassifyDefault(v)
		fmt.Println("chunk  category  complexity  sizes per track (Mb)")
		for i := 0; i < v.NumChunks(); i++ {
			fmt.Printf("%5d  Q%d        %.2f      ", i, cats[i], v.Complexity[i])
			for l := 0; l < v.NumTracks(); l++ {
				fmt.Printf(" %6.2f", v.ChunkSize(l, i)/1e6)
			}
			fmt.Println()
		}
	case *out != "":
		write, ok := manifestWriters[*format]
		if !ok {
			fmt.Fprintf(os.Stderr, "videogen: unknown format %q (want json, mpd, or hls)\n", *format)
			os.Exit(2)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "videogen: %v\n", err)
			os.Exit(1)
		}
		files := 0
		for _, v := range video.Dataset() {
			m := dash.BuildManifest(v)
			if err := write(*out, v.ID(), m); err != nil {
				fmt.Fprintf(os.Stderr, "videogen: %v\n", err)
				os.Exit(1)
			}
			files++
		}
		fmt.Printf("wrote %d %s manifests to %s\n", files, *format, *out)
	default:
		fmt.Fprintln(os.Stderr, "videogen: need -stats, -out <dir>, or -video <id> -chunks")
		os.Exit(2)
	}
}
