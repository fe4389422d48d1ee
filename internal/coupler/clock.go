package coupler

import (
	"fmt"
	"time"
)

// Clock is the coupler's main clock (§5.1.1): it owns the current simulated
// time, advances in coupling steps, and drives per-component alarms whose
// periods are the component coupling frequencies. Components keep their own
// clocks consistent with the coupling clock by construction — they only
// step when their alarm rings.
type Clock struct {
	Start   time.Time
	Current time.Time
	Stop    time.Time
	Step    time.Duration // base coupling step

	alarms  map[string]*Alarm
	ringing []string // Advance's result, reused
}

// Alarm rings every Period of simulated time from the clock start.
type Alarm struct {
	Name   string
	Period time.Duration
	next   time.Time
}

// NewClock creates a clock over [start, stop) with the given base step.
// The per-day coupling frequencies of AP3ESM (180 atmosphere, 36 ocean,
// 180 sea ice couplings per day) translate to alarm periods of 8, 40, and
// 8 minutes; the base step must divide every alarm period.
func NewClock(start, stop time.Time, step time.Duration) (*Clock, error) {
	if !stop.After(start) {
		return nil, fmt.Errorf("coupler: stop %v not after start %v", stop, start)
	}
	if step <= 0 {
		return nil, fmt.Errorf("coupler: non-positive step %v", step)
	}
	return &Clock{
		Start: start, Current: start, Stop: stop, Step: step,
		alarms: make(map[string]*Alarm),
	}, nil
}

// PeriodForCouplingsPerDay converts a coupling frequency to an alarm period.
func PeriodForCouplingsPerDay(n int) (time.Duration, error) {
	if n <= 0 || (24*time.Hour)%time.Duration(n) != 0 {
		return 0, fmt.Errorf("coupler: %d couplings/day does not divide a day evenly", n)
	}
	return 24 * time.Hour / time.Duration(n), nil
}

// AddAlarm registers a component alarm. The period must be a positive
// multiple of the base step so that alarms always ring exactly on a step.
func (c *Clock) AddAlarm(name string, period time.Duration) error {
	if period <= 0 || period%c.Step != 0 {
		return fmt.Errorf("coupler: alarm %q period %v is not a multiple of step %v", name, period, c.Step)
	}
	if _, dup := c.alarms[name]; dup {
		return fmt.Errorf("coupler: duplicate alarm %q", name)
	}
	c.alarms[name] = &Alarm{Name: name, Period: period, next: c.Start}
	return nil
}

// Advance moves the clock one coupling step and returns the names of alarms
// ringing at the *beginning* of the new interval (a component whose alarm
// rings integrates forward over its period). Returns false when the clock
// has reached its stop time. The returned slice is the clock's own and
// valid until the next Advance, so a step allocates nothing.
func (c *Clock) Advance() ([]string, bool) {
	if !c.Current.Before(c.Stop) {
		return nil, false
	}
	c.ringing = c.ringing[:0]
	for _, a := range c.alarms {
		if !a.next.After(c.Current) {
			c.ringing = append(c.ringing, a.Name)
			a.next = a.next.Add(a.Period)
		}
	}
	c.Current = c.Current.Add(c.Step)
	sortStrings(c.ringing)
	return c.ringing, true
}

// Due reports whether the named alarm would ring on the next Advance. It is
// a read-only peek: it moves neither the clock nor the alarm, and it ignores
// the stop time, so a run that ends (or checkpoints) on the step before a
// ring still answers true. An unknown alarm is never due.
func (c *Clock) Due(name string) bool {
	a, ok := c.alarms[name]
	return ok && !a.next.After(c.Current)
}

// Done reports whether the clock reached its stop time.
func (c *Clock) Done() bool { return !c.Current.Before(c.Stop) }

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
