package autoscale

import "time"

// latch is the hysteresis every policy embeds: act on a sustained
// signal, hold off for a cooldown after acting, and undo only what the
// policy itself armed. The thresholds (CalmTicks, Cooldown) stay on the
// policies; the latch is the state they gate.
type latch struct {
	// armed: the policy's own actuation is in effect (reversible
	// policies only).
	armed bool
	// streak counts consecutive ticks of the condition being waited out
	// (calm ticks before undoing, bad windows before switching).
	streak  int
	lastAct time.Duration
	acted   bool
}

// cooling reports whether the last actuation is younger than cooldown.
func (l *latch) cooling(now, cooldown time.Duration) bool {
	return l.acted && now-l.lastAct < cooldown
}

// fire stamps an actuation at now and restarts the streak.
func (l *latch) fire(now time.Duration) {
	l.streak, l.lastAct, l.acted = 0, now, true
}

// arm handles a tick on which the trigger holds: the calm streak
// restarts and — unless the knob is already on, by this policy or by the
// operator — the latch arms and reports true: the caller actuates.
func (l *latch) arm(now time.Duration, alreadyOn bool) bool {
	l.streak = 0
	if alreadyOn || l.armed {
		return false
	}
	l.armed = true
	l.fire(now)
	return true
}

// disarm handles a calm tick: while armed it extends the streak, and
// once calmTicks have passed in a row it disarms and reports true: the
// caller undoes its actuation.
func (l *latch) disarm(now time.Duration, calmTicks int) bool {
	if !l.armed {
		return false
	}
	if l.streak++; l.streak < calmTicks {
		return false
	}
	l.armed = false
	l.fire(now)
	return true
}
