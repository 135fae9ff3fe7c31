package autoscale

import (
	"fmt"
	"time"
)

// CacheSwitcher rotates a context through a ring of cache replacement
// policies when its windowed hit ratio stays low: if the current scheme
// mispredicts the workload's reuse pattern for BadTicks consecutive
// windows with enough traffic to judge, the next candidate is tried.
// Context iteration is sorted, so the switcher is deterministic under
// the DES.
type CacheSwitcher struct {
	// Contexts restricts the switcher (empty = every context).
	Contexts []string
	// Policies is the candidate ring (default [DCL LRU]). The switch
	// target is the ring entry after the context's current policy; a
	// current policy outside the ring starts at the front.
	Policies []string
	// LowHit is the windowed hit-ratio floor (default 0.5).
	LowHit float64
	// MinOpens is the minimum opens per window to judge (default 16) —
	// below it the window is noise and the streak resets.
	MinOpens int64
	// BadTicks is the number of consecutive low-ratio windows before
	// switching (default 2).
	BadTicks int
	// Cooldown is the minimum controller time between switches of the
	// same context.
	Cooldown time.Duration

	// state is one latch per context: the streak counts consecutive
	// low-ratio windows.
	state map[string]*latch
}

func (p *CacheSwitcher) Name() string { return "cache-switcher" }

func (p *CacheSwitcher) policies() []string {
	if len(p.Policies) > 0 {
		return p.Policies
	}
	return []string{"DCL", "LRU"}
}

func (p *CacheSwitcher) governed(name string) bool {
	if len(p.Contexts) == 0 {
		return true
	}
	for _, c := range p.Contexts {
		if c == name {
			return true
		}
	}
	return false
}

// next returns the ring entry after cur (ring front when cur is not a
// ring member), or "" when there is nowhere to rotate to.
func (p *CacheSwitcher) next(cur string) string {
	ring := p.policies()
	for i, name := range ring {
		if name == cur {
			n := ring[(i+1)%len(ring)]
			if n == cur {
				return ""
			}
			return n
		}
	}
	if ring[0] == cur {
		return ""
	}
	return ring[0]
}

func (p *CacheSwitcher) Evaluate(t Tick) []Action {
	if t.First {
		return nil
	}
	if p.state == nil {
		p.state = make(map[string]*latch)
	}
	lowHit := orDefault(p.LowHit, 0.5)
	minOpens := orDefault(p.MinOpens, 16)
	badTicks := orDefault(p.BadTicks, 2)
	var actions []Action
	for _, name := range sortedCtxNames(t.Cur.Ctxs) {
		cur := t.Cur.Ctxs[name]
		if !p.governed(name) || cur.Draining {
			continue
		}
		st := p.state[name]
		if st == nil {
			st = &latch{}
			p.state[name] = st
		}
		prev, had := t.Prev.Ctxs[name]
		if !had {
			continue // first window for this context
		}
		dOpens := cur.Opens - prev.Opens
		if dOpens < minOpens {
			st.streak = 0 // not enough traffic to judge: reset the streak
			continue
		}
		ratio := float64(cur.Hits-prev.Hits) / float64(dOpens)
		if ratio >= lowHit {
			st.streak = 0
			continue
		}
		st.streak++
		if st.streak < badTicks || st.cooling(t.Now, p.Cooldown) {
			continue
		}
		target := p.next(cur.CachePolicy)
		if target == "" {
			st.streak = 0
			continue
		}
		st.fire(t.Now)
		actions = append(actions, Action{
			Cache: &CacheSwitch{Ctx: name, Policy: target},
			Reason: fmt.Sprintf("hit ratio %.2f < %.2f for %d windows (%d opens)",
				ratio, lowHit, badTicks, dOpens),
		})
	}
	return actions
}
