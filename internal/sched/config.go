package sched

import (
	"fmt"
	"strings"
)

// Config selects the scheduling policy. The zero value reproduces the
// paper's inline rules exactly. This is the one declaration of the
// scheduler's knobs: the JSON tags are the wire format of a sched-get
// reply (netproto.SchedInfo is this type), and Patch is the only
// partial-update type (netproto.SchedSetBody and the control plane
// carry it).
type Config struct {
	// Coalesce merges overlapping or adjacent queued requests of one
	// context into a single job.
	Coalesce bool `json:"coalesce"`
	// Priorities drains the queue in class order (demand > guided >
	// agent) and queues prefetch requests at capacity instead of
	// dropping them. Queueing prefetch work is only safe when demand
	// interest can still reach it, so Priorities also arms the
	// demand-join rule (PromoteDemand): a demand open landing inside a
	// queued prefetch job's range lifts that job to demand class.
	Priorities bool `json:"priorities"`
	// TotalNodes bounds the summed parallelism of running simulations
	// across all contexts (0 = unlimited). Jobs wider than TotalNodes
	// are clamped by the core via MaxJobNodes.
	TotalNodes int `json:"total_nodes"`
	// Preempt lets a demand miss blocked on an exhausted node budget
	// kill the youngest running agent prefetch (its interval is
	// requeued). PreemptOff (zero) never preempts; a TotalNodes budget
	// is required for preemption to ever trigger.
	Preempt PreemptPolicy `json:"preempt_policy"`
	// DRRQuantum enables deficit-round-robin fairness between clients
	// inside a priority class: each client earns this many output steps
	// of launch credit per round, so one greedy client cannot starve its
	// neighbours with a burst of submissions. 0 keeps pure FIFO. The
	// quantum only takes effect alongside Priorities — "within a class"
	// presupposes class ordering; without it the queue is pure
	// submission-order FIFO by definition, and letting credit reorder
	// across classes would let speculative work overtake queued demand.
	DRRQuantum int `json:"drr_quantum,omitempty"`
}

// Patch is a partial reconfiguration: nil fields keep the current
// value, so a caller can flip one knob without knowing the rest. Its
// JSON form is the sched-set request body.
type Patch struct {
	Coalesce   *bool          `json:"coalesce,omitempty"`
	Priorities *bool          `json:"priorities,omitempty"`
	TotalNodes *int           `json:"total_nodes,omitempty"`
	Preempt    *PreemptPolicy `json:"preempt_policy,omitempty"`
	DRRQuantum *int           `json:"drr_quantum,omitempty"`
}

// Apply folds the patch into cfg. Validation happens in full before
// anything is returned: a patch is atomic — either every knob lands or
// none does.
func (p Patch) Apply(cfg Config) (Config, error) {
	if p.TotalNodes != nil && *p.TotalNodes < 0 {
		return cfg, fmt.Errorf("sched: total_nodes must be ≥ 0, got %d", *p.TotalNodes)
	}
	if p.DRRQuantum != nil && *p.DRRQuantum < 0 {
		return cfg, fmt.Errorf("sched: drr_quantum must be ≥ 0, got %d", *p.DRRQuantum)
	}
	if p.Preempt != nil && *p.Preempt > PreemptYoungest {
		return cfg, fmt.Errorf("sched: unknown preempt policy %d", *p.Preempt)
	}
	set(&cfg.Coalesce, p.Coalesce)
	set(&cfg.Priorities, p.Priorities)
	set(&cfg.TotalNodes, p.TotalNodes)
	set(&cfg.Preempt, p.Preempt)
	set(&cfg.DRRQuantum, p.DRRQuantum)
	return cfg, nil
}

func set[T any](dst, src *T) {
	if src != nil {
		*dst = *src
	}
}

// String renders the claimed fields for logs, e.g.
// "sched{nodes=6 preempt=youngest}".
func (p Patch) String() string {
	var parts []string
	part(&parts, "coalesce", p.Coalesce)
	part(&parts, "priorities", p.Priorities)
	part(&parts, "nodes", p.TotalNodes)
	part(&parts, "preempt", p.Preempt)
	part(&parts, "quantum", p.DRRQuantum)
	return "sched{" + strings.Join(parts, " ") + "}"
}

func part[T any](parts *[]string, name string, v *T) {
	if v != nil {
		*parts = append(*parts, fmt.Sprintf("%s=%v", name, *v))
	}
}
