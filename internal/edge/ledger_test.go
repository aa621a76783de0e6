package edge

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"cava/internal/dash"
	"cava/internal/telemetry"
)

// servingTierSeries is the /metrics surface the serving tier registers:
// every series (with its TYPE line, values stripped) that Edge, Breaker,
// Protection and FaultInjector put on one registry, i.e. the union of
// dashserve's single-origin and -edge topologies minus the handle-only
// Server and Shaper series.
const servingTierSeries = `
# TYPE dash_admission_active_sessions gauge
dash_admission_active_sessions
# TYPE dash_admission_admitted_total counter
dash_admission_admitted_total
# TYPE dash_admission_inflight_requests gauge
dash_admission_inflight_requests
# TYPE dash_admission_shed_total counter
dash_admission_shed_total{reason="queue_full"}
dash_admission_shed_total{reason="queue_timeout"}
dash_admission_shed_total{reason="rate_limited"}
# TYPE dash_admission_waiting_sessions gauge
dash_admission_waiting_sessions
# TYPE dash_breaker_short_circuit_total counter
dash_breaker_short_circuit_total
# TYPE dash_breaker_state gauge
dash_breaker_state
# TYPE dash_breaker_transitions_total counter
dash_breaker_transitions_total{to="closed"}
dash_breaker_transitions_total{to="half_open"}
dash_breaker_transitions_total{to="open"}
# TYPE dash_faults_injected_total counter
dash_faults_injected_total{type="error"}
dash_faults_injected_total{type="latency"}
dash_faults_injected_total{type="outage"}
dash_faults_injected_total{type="reset"}
dash_faults_injected_total{type="stall"}
dash_faults_injected_total{type="truncate"}
# TYPE dash_faults_requests_total counter
dash_faults_requests_total
# TYPE edge_cache_bytes gauge
edge_cache_bytes
# TYPE edge_cache_evictions_total counter
edge_cache_evictions_total
# TYPE edge_cache_hits_total counter
edge_cache_hits_total
# TYPE edge_cache_misses_total counter
edge_cache_misses_total
# TYPE edge_coalesced_requests_total counter
edge_coalesced_requests_total
# TYPE edge_origin_failovers_total counter
edge_origin_failovers_total
# TYPE edge_served_bytes_total counter
edge_served_bytes_total
# TYPE edge_shed_total counter
edge_shed_total
# TYPE edge_stale_served_total counter
edge_stale_served_total
`

// exposition renders reg's text exposition as its samples (values) or as
// its TYPE lines and series without values.
func exposition(t *testing.T, reg *telemetry.Registry, values bool) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	out.WriteByte('\n')
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "), values && strings.HasPrefix(line, "#"):
			continue
		case !values && !strings.HasPrefix(line, "#"):
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out.WriteString(line + "\n")
	}
	return out.String()
}

// TestServingTierSeriesGolden pins the names, label sets and types of the
// 28 serving-tier series, so moving a component's exposition from handles
// to its Stats cannot rename, drop or retype one.
func TestServingTierSeriesGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(Config{Origins: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetMetrics(reg)
	bc := dash.DefaultBreakerConfig()
	dash.Protect(dash.ProtectionConfig{Breaker: &bc}, http.NotFoundHandler()).SetMetrics(reg)
	inj, err := dash.NewFaultInjector("none", 0, 1, http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	inj.SetMetrics(reg)

	got := exposition(t, reg, false)
	if got != servingTierSeries {
		t.Errorf("serving-tier series:\n%s\nwant:\n%s", got, servingTierSeries)
	}
	if n := strings.Count(got, "\n") - strings.Count(got, "# TYPE") - 1; n != 28 {
		t.Errorf("%d series, want 28", n)
	}
}

// TestEdgeSeriesReadStats drives hits, misses, evictions, stale serves,
// failovers and a shed through the edge, then checks that every edge
// series reads its Stats field (the cache-bytes gauge reads the segment
// cache).
func TestEdgeSeriesReadStats(t *testing.T) {
	o0, o1 := newTestOrigin(t, 0), newTestOrigin(t, 1)
	e, clock, reg := newTestEdge(t, Config{VideoID: "vid", CacheBytes: 12}, o0, o1)
	get(e, "/manifest.json", "s1") // miss
	get(e, "/manifest.json", "s1") // hit
	clock.Advance(2 * time.Second)
	get(e, "/manifest.json", "s1") // stale, refreshed in the background
	waitFor(t, "background refresh", func() bool { return e.Stats().Refreshes == 1 })
	for _, seg := range []string{"/seg/0/0", "/seg/0/0", "/seg/0/1", "/seg/0/2"} {
		get(e, seg, "s1") // 5-byte bodies in a 12-byte cache: the third store evicts
	}
	primary := []*testOrigin{o0, o1}[e.OriginOrder("")[0]]
	primary.failing.Store(true)
	get(e, "/seg/1/0", "s1") // fails over to the backup
	o0.failing.Store(true)
	o1.failing.Store(true)
	get(e, "/seg/1/1", "s1") // shed

	s := e.Stats()
	if s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 || s.StaleServed == 0 ||
		s.Failovers == 0 || s.Shed == 0 || s.ServedBytes == 0 {
		t.Fatalf("stats = %+v, want every counter driven", s)
	}
	want := fmt.Sprintf(`
edge_cache_bytes %d
edge_cache_evictions_total %d
edge_cache_hits_total %d
edge_cache_misses_total %d
edge_coalesced_requests_total %d
edge_origin_failovers_total %d
edge_served_bytes_total %d
edge_shed_total %d
edge_stale_served_total %d
`, e.segs.Stats().StoredBytes, s.Evictions, s.Hits, s.Misses, s.Coalesced, s.Failovers,
		s.ServedBytes, s.Shed, s.StaleServed)
	if got := exposition(t, reg, true); got != want {
		t.Errorf("edge exposition:\n%s\nwant, from Stats:\n%s", got, want)
	}
}
