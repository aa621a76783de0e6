package dash

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"cava/internal/telemetry"
)

// Each serving-tier component's Stats is its one ledger, and /metrics reads
// it. The exposition tests here and in breaker_test.go and overload_test.go
// drive traffic and check every series SetMetrics registers against its
// Stats field, and that a scrape changes no state.

// scrape parses reg's exposition into a series → value map.
func scrape(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

// assertSeries checks that reg exposes exactly the wanted series and values.
func assertSeries(t *testing.T, reg *telemetry.Registry, want map[string]int) {
	t.Helper()
	got := scrape(t, reg)
	for series, v := range want {
		if g, ok := got[series]; !ok || g != float64(v) {
			t.Errorf("%s = %v (exposed %v), want %d", series, g, ok, v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d series exposed, want %d: %v", len(got), len(want), got)
	}
}

// TestOriginBreakerScrape pins the edge's use of a breaker: a short
// circuit taken through Allow shows on /metrics, and a scrape past the
// cool-down reads the state without moving open to half-open.
func TestOriginBreakerScrape(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	reg := telemetry.NewRegistry()
	b := NewOriginBreaker(BreakerConfig{ConsecutiveFailures: 1, OpenSec: 5}).WithClock(fc)
	b.SetMetrics(reg)
	b.Observe(false, true)
	if pass, _, _ := b.Allow(); pass {
		t.Fatal("open breaker admitted an attempt")
	}
	if got := scrape(t, reg)["dash_breaker_short_circuit_total"]; got != 1 {
		t.Errorf("dash_breaker_short_circuit_total = %v after an Allow short circuit, want 1", got)
	}

	fc.Advance(6 * time.Second)
	if got := scrape(t, reg)["dash_breaker_state"]; got != float64(BreakerOpen) {
		t.Errorf("dash_breaker_state = %v, want %d (open)", got, BreakerOpen)
	}
	if s := b.Stats(); s.State != BreakerOpen || s.HalfOpens != 0 {
		t.Errorf("scrape moved the breaker: %+v", s)
	}
	if st := b.State(); st != BreakerHalfOpen {
		t.Errorf("State() past the cool-down = %v, want half-open", st)
	}
}

// allFaultsInjector injects every fault type at the given seed, with an
// outage over the first virtual second of fc.
func allFaultsInjector(seed int64, fc *FakeClock) *FaultInjector {
	return newFaultInjector(faultConfig{
		Seed: seed, ErrorProb: 0.2, ResetProb: 0.2, TruncateProb: 0.2,
		LatencyProb: 0.3, LatencySec: 0.001, StallProb: 0.3, StallSec: 0.001,
		Outages: []outageWindow{{StartSec: 0, EndSec: 1}},
	}, payloadHandler(64)).WithClock(fc)
}

// driveFaults sends n segment requests through inj, the first three inside
// the outage window, and swallows the injected connection resets.
func driveFaults(t *testing.T, inj *FaultInjector, fc *FakeClock, n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			fc.Advance(2 * time.Second) // leave the outage window
		}
		func() {
			defer func() {
				if r := recover(); r != nil && r != http.ErrAbortHandler {
					panic(r)
				}
			}()
			doReq(t, inj, fmt.Sprintf("/seg/0/%d", i))
		}()
	}
}

// faultSeries is the exposition FaultInjectors.SetMetrics should show for s.
func faultSeries(s FaultStats) map[string]int {
	return map[string]int{
		"dash_faults_requests_total":                  s.Requests,
		`dash_faults_injected_total{type="outage"}`:   s.OutageRejections,
		`dash_faults_injected_total{type="reset"}`:    s.Resets,
		`dash_faults_injected_total{type="error"}`:    s.Errors,
		`dash_faults_injected_total{type="truncate"}`: s.Truncations,
		`dash_faults_injected_total{type="latency"}`:  s.Latencies,
		`dash_faults_injected_total{type="stall"}`:    s.Stalls,
	}
}

// TestFaultInjectorSeriesReadStats injects every fault type and checks the
// per-type series against FaultStats.
func TestFaultInjectorSeriesReadStats(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	reg := telemetry.NewRegistry()
	inj := allFaultsInjector(3, fc)
	FaultInjectors{inj}.SetMetrics(reg)
	driveFaults(t, inj, fc, 100)
	s := inj.Stats()
	if s.OutageRejections == 0 || s.Resets == 0 || s.Errors == 0 || s.Truncations == 0 ||
		s.Latencies == 0 || s.Stalls == 0 {
		t.Fatalf("stats = %+v, want every fault type injected", s)
	}
	assertSeries(t, reg, faultSeries(s))
}

// TestFaultInjectorsSeriesSumOrigins registers three origin injectors at
// once, as dashserve -edge does, and checks that the registry carries
// exactly the seven fault series, each the sum over the origins.
func TestFaultInjectorsSeriesSumOrigins(t *testing.T) {
	reg := telemetry.NewRegistry()
	var injs FaultInjectors
	var sum FaultStats
	for i, n := range []int{40, 70, 100} {
		fc := NewFakeClock(time.Unix(1000, 0))
		inj := allFaultsInjector(OriginFaultSeed(3, i), fc)
		injs = append(injs, inj)
		driveFaults(t, inj, fc, n)
		s := inj.Stats()
		sum.Requests += s.Requests
		sum.OutageRejections += s.OutageRejections
		sum.Resets += s.Resets
		sum.Errors += s.Errors
		sum.Truncations += s.Truncations
		sum.Latencies += s.Latencies
		sum.Stalls += s.Stalls
	}
	injs.SetMetrics(reg)
	if sum.Requests != 210 || sum.Errors == 0 || sum.Resets == 0 {
		t.Fatalf("summed stats = %+v, want 210 requests with faults", sum)
	}
	if got := injs.Stats(); got != sum {
		t.Errorf("Stats() = %+v, want the origins' sum %+v", got, sum)
	}
	assertSeries(t, reg, faultSeries(sum))
}
