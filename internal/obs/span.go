package obs

import "time"

// Span is one timed region of a rank's timeline. Spans nest: StartSpan
// makes the new span the current one, End restores its parent, and the
// path records the ancestry ("esm/ocn/halo"). Closing a span accumulates
// into its section (by leaf name, the getTiming convention) and emits a
// timeline event to the sink.
type Span struct {
	o      *Obs
	name   string
	path   string
	parent *Span
	start  time.Time
}

// Name returns the span's leaf name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Path returns the span's nesting path.
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// End closes the span, accumulating its wall time into the section named
// after it. Safe on a nil span (the Nop observer's product).
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	o := s.o
	o.mu.Lock()
	sec := o.sections[s.name]
	if sec == nil {
		sec = &section{}
		o.sections[s.name] = sec
	}
	sec.total += d
	sec.calls++
	if o.cur == s {
		o.cur = s.parent
	}
	sink := o.sink
	startNs := s.start.Sub(o.epoch).Nanoseconds()
	o.mu.Unlock()
	if sink != nil {
		sink.Emit(Event{
			Kind:    "span",
			Rank:    o.rank,
			Name:    s.name,
			Path:    s.path,
			StartNs: startNs,
			DurNs:   d.Nanoseconds(),
		})
	}
}
