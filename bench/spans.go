package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one op
// share its Op id; Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the benchmark ends.
// It nests by call order, so one goroutine owns it (rank 0 of a lap). A nil
// recorder records nothing: the untraced laps pass nil and pay one branch.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int
	op       int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now(), op: -1}
}

// setOp tags the spans begun from now on with op id (-1: outside any op).
func (r *recorder) setOp(id int) {
	if r != nil {
		r.op = id
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, StartNs: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover. Children of one parent never overlap (they nest by
// call order), so the covered part is the sum of their durations.
func (r *recorder) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered[i])
	}
	return self
}

// writeSpans writes the recorders' spans as JSON lines, one file for the
// whole traced run, each line naming its workload.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			line := struct {
				Workload string `json:"workload"`
				span
			}{r.workload, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
