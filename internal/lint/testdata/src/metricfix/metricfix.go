// Package metricfix exercises the metricname analyzer against the stub
// telemetry registry: snake_case, constant names, _total on counters (and
// nowhere else), unit suffixes on histograms, and no bare quantity stems
// on gauges.
package metricfix

import "fixture/telemetry"

func register(r *telemetry.Registry) {
	r.Counter("requests_total", "good")
	r.Gauge("queue_depth", "good")
	r.Histogram("fetch_seconds", "good", nil)

	r.Counter("requests", "missing _total")        // want metricname
	r.Counter("Bad_Case_total", "not snake_case")  // want metricname
	r.Gauge("queue_total", "_total on a gauge")    // want metricname
	r.Gauge("fetch_latency", "bare quantity stem") // want metricname
	r.Histogram("fetch_time", "no unit", nil)      // want metricname
	r.Counter(dynamic(), "non-constant name")      // want metricname

	// The function forms follow their kind's rules.
	n := func() uint64 { return 0 }
	v := func() float64 { return 0 }
	r.CounterFunc("hits_total", "good", n)
	r.GaugeFunc("cache_bytes", "good", v)
	r.CounterFunc("hits", "missing _total", n)         // want metricname
	r.GaugeFunc("hits_total", "_total on a gauge", v)  // want metricname
	r.GaugeFunc("cache_size", "bare quantity stem", v) // want metricname
	r.CounterFunc(dynamic(), "non-constant name", n)   // want metricname
}

func dynamic() string { return "dyn_total" }

// waived shows a reasoned suppression: the finding is marked, not counted.
func waived(r *telemetry.Registry) {
	//lint:allow metricname legacy dashboard name the fixture keeps for the suppression path
	r.Counter("legacy", "waived")
}

// bareWaiver shows that a reason-less directive does not suppress.
func bareWaiver(r *telemetry.Registry) {
	//lint:allow metricname
	r.Counter("bare", "still reported") // want metricname
}
