package dash

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// Golden digests of the four fault profiles at the injector. Each constant
// is an FNV-64a hash of one profile's answers to goldenScheduleRequests
// (status, bytes delivered against bytes declared, and how far the fake
// clock moved while serving) followed by its final FaultStats, so any
// change to a profile's rates, outage window, segments-only rule or draw
// moves it.
var goldenSchedule = map[string]uint64{
	"none":      0x82923ea61eba7e34,
	"transient": 0x49ddd716a79550ce,
	"lossy":     0x6f1d14a39dbb98da,
	"outage":    0x39d8778bcc03932b,
}

// goldenScheduleStepSec is the virtual time between two segment paths: 32
// paths span 46.5 virtual seconds, so the outage profile's [30, 42) window
// refuses eight paths in the middle of the list.
const goldenScheduleStepSec = 1.5

// goldenScheduleRequests is the manifest, then 32 segment paths cycling
// through the tracks, each requested twice so the second request of a path
// draws as its retry.
func goldenScheduleRequests(tracks int) []string {
	out := []string{"/manifest.json"}
	for i := 0; i < 32; i++ {
		p := SegmentURL(i%tracks, i)
		out = append(out, p, p)
	}
	return out
}

// serveRecorded serves one request and reports its status (-1 for a reset
// connection) with the recorder holding whatever body got through.
func serveRecorded(h http.Handler, path string) (rec *httptest.ResponseRecorder, status int) {
	rec = httptest.NewRecorder()
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			status = -1
		}
	}()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec, rec.Code
}

// TestFaultProfileScheduleGolden pins what each named profile does to a
// fixed request list at seed 7 and time scale 100 on a fake clock: which
// requests fail and how, which bodies are cut short, which responses are
// delayed, and that the manifest is never faulted.
func TestFaultProfileScheduleGolden(t *testing.T) {
	v := testVideo()
	paths := goldenScheduleRequests(v.NumTracks())
	manifest, _ := serveRecorded(NewServer(v).Handler(), "/manifest.json")
	for profile, want := range goldenSchedule {
		clk := NewFakeClock(time.Unix(0, 0))
		inj, err := NewFaultInjector(profile, 7, goldenScale, NewServer(v).Handler())
		if err != nil {
			t.Fatal(err)
		}
		inj.WithClock(clk)

		h := fnv.New64a()
		for i, path := range paths {
			if i > 0 && i%2 == 1 {
				clk.Advance(Seconds(goldenScheduleStepSec / goldenScale))
			}
			before := clk.Now()
			rec, status := serveRecorded(inj, path)
			moved := clk.Now().Sub(before)
			declared := rec.Header().Get("Content-Length")
			if path == "/manifest.json" && (status != http.StatusOK || moved != 0 ||
				rec.Body.String() != manifest.Body.String()) {
				t.Errorf("%s: manifest answered %d with %d bytes after %v; want it untouched",
					profile, status, rec.Body.Len(), moved)
			}
			fmt.Fprintf(h, "%s %d %d/%s %d\n", path, status, rec.Body.Len(), declared, moved)
		}
		st := inj.Stats()
		fmt.Fprintf(h, "%+v\n", st)
		if got := h.Sum64(); got != want {
			t.Errorf("%s: digest %#016x, want %#016x (stats %+v)", profile, got, want, st)
		}
	}
}
