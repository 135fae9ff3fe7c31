package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent 0 marks a root; Op groups the spans of one
// open→ready→close cycle (0 for spans that belong to no single op).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// key ties launcher-seam spans to the op that waited for them: the
	// restart interval of the produced step, or, for sim life-cycle
	// events that carry no step, the simulation id (resolved to an
	// interval when the trace is closed).
	interval int
	simID    int64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxStoredSpans bounds one recorder's memory. Past it the per-name
// aggregates keep counting (so medians cover the whole traced phase and
// the tracing cost stays the same) but spans are no longer kept for the
// trace file.
const maxStoredSpans = 1 << 15

// recorder collects spans from one goroutine, or from several when
// shared is set (the launcher seams run on simulation goroutines).
type recorder struct {
	idBase uint64
	shared bool
	mu     sync.Mutex
	spans  []span
	agg    map[string]*spanAgg
	next   uint64
}

type spanAgg struct {
	h     hist
	total time.Duration
}

func newRecorder(idx int, shared bool) *recorder {
	return &recorder{idBase: uint64(idx+1) << 40, shared: shared, agg: map[string]*spanAgg{}}
}

// reserve hands out an id before the span ends, so children recorded
// meanwhile can name their parent.
func (r *recorder) reserve() uint64 {
	if r.shared {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.next++
	return r.idBase | r.next
}

// room reports whether n more spans fit under the storage cap. A client
// asks once per op, so an op's spans are kept or dropped together and no
// stored child ever names a dropped parent.
func (r *recorder) room(n int) bool { return len(r.spans)+n <= maxStoredSpans }

// add records a finished span (under s.ID when reserve already issued
// one) and returns its id. The span always feeds the per-name
// aggregates; it is stored for the trace file only when keep is set.
func (r *recorder) add(s span, keep bool) uint64 {
	if r.shared {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if s.ID == 0 {
		r.next++
		s.ID = r.idBase | r.next
	}
	a := r.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		r.agg[s.Name] = a
	}
	a.h.add(s.dur())
	a.total += s.dur()
	if keep && len(r.spans) < maxStoredSpans {
		r.spans = append(r.spans, s)
	}
	return s.ID
}

// traceSet is every recorder of one traced phase.
type traceSet struct {
	clients  []*recorder
	launcher *recorder
}

func newTraceSet(clients int) *traceSet {
	ts := &traceSet{launcher: newRecorder(clients, true)}
	for c := 0; c < clients; c++ {
		ts.clients = append(ts.clients, newRecorder(c, false))
	}
	return ts
}

// aggOf merges one span name's aggregate over all recorders.
func (ts *traceSet) aggOf(name string) (h hist, total time.Duration) {
	for _, r := range append(append([]*recorder(nil), ts.clients...), ts.launcher) {
		if a := r.agg[name]; a != nil {
			h.merge(&a.h)
			total += a.total
		}
	}
	return h, total
}

// resolve closes the trace: launcher-seam spans get as parent the op
// span (same restart interval) that wholly contains them — the op that
// was blocked while they ran — and stay roots when no stored op does
// (steps produced after the waiter was already served, or past the
// storage cap). It returns all stored spans, parents before children.
func (ts *traceSet) resolve() []span {
	simInterval := map[int64]int{}
	for _, s := range ts.launcher.spans {
		if s.simID != 0 && s.interval != 0 {
			simInterval[s.simID] = s.interval
		}
	}
	opsByInterval := map[int][]span{}
	var all []span
	for _, r := range ts.clients {
		for _, s := range r.spans {
			if s.Name == "op" && s.interval != 0 {
				opsByInterval[s.interval] = append(opsByInterval[s.interval], s)
			}
		}
		all = append(all, r.spans...)
	}
	for _, s := range ts.launcher.spans {
		iv := s.interval
		if iv == 0 {
			iv = simInterval[s.simID]
		}
		for _, op := range opsByInterval[iv] {
			if op.Start <= s.Start && s.End <= op.End {
				s.Parent, s.Op = op.ID, op.Op
				break
			}
		}
		all = append(all, s)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its children cover (children of one parent may overlap: a launcher
// span runs while the client sits in dvlib.wait).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// checkSpans verifies the structural contract of a trace: ids unique,
// every parent recorded, children inside their parent, self time ≥ 0.
func checkSpans(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d recorded twice", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %s/%d ends before it starts", s.Name, s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s/%d names unrecorded parent %d", s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s/%d [%d,%d] leaves its parent %s [%d,%d]",
				s.Name, s.ID, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d has negative self time %v", id, d)
		}
	}
	return nil
}

// writeSpans dumps the stored spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
