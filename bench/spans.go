package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request or
// one algorithm instance share Trace; Parent names the span that caused
// this one. SelfNs is filled when the log is written: the duration minus
// the part of it that child spans cover.
type span struct {
	Trace   string `json:"trace"`
	ID      string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spanLog keeps a traced rep's spans in memory until the rep ends. A nil
// *spanLog is the untraced case: every method is a no-op.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// since returns ns since the log's origin, the clock spans are stamped on.
func (l *spanLog) since() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.base))
}

// phase records a span from start (a since reading) to now.
func (l *spanLog) phase(trace, id, parent, name string, start int64) {
	if l == nil {
		return
	}
	l.add(span{Trace: trace, ID: id, Parent: parent, Name: name, StartNs: start, DurNs: l.since() - start})
}

// selfTimes fills every span's SelfNs and returns the total self time per
// span name in milliseconds.
func (l *spanLog) selfTimes() map[string]float64 {
	children := make(map[string][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]float64)
	for i := range l.spans {
		s := &l.spans[i]
		s.SelfNs = s.DurNs - covered(s, l.spans, children[s.ID])
		byName[s.Name] += float64(s.SelfNs) / 1e6
	}
	return byName
}

// covered returns how much of parent's interval the given child spans
// cover, counting overlapping children once.
func covered(parent *span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	end := parent.StartNs + parent.DurNs
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].StartNs, parent.StartNs), min(spans[k].StartNs+spans[k].DurNs, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach int64
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// write computes self times and writes the spans as JSON Lines to path.
func (l *spanLog) write(path string) (map[string]float64, error) {
	self := l.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the write error is the one to report
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error is the one to report
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return self, nil
}
