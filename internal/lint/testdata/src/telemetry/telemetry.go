// Package telemetry is a stub of the real registry: just enough surface
// for the metricname fixture to type-check against. The analyzer matches
// receivers by type name (Registry) and package name (telemetry), so
// calls through this stub exercise the same code path as the real one.
package telemetry

// Label is one name/value metric dimension.
type Label struct {
	Name  string
	Value string
}

// Counter, Gauge and Histogram are opaque handles.
type Counter struct{}

type Gauge struct{}

type Histogram struct{}

// Registry mirrors the real registry's registration surface.
type Registry struct{}

func (r *Registry) Counter(name, help string, labels ...Label) *Counter { return nil }

func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge { return nil }

func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return nil
}

func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {}

func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {}
