package par

import (
	"reflect"
	"sync/atomic"
)

// Observer receives traffic counts from the runtime. It is the structural
// subset of obs.Observer the runtime consumes, declared here so par does
// not import obs (obs sits above par: its Reduce step uses collectives).
type Observer interface {
	AddCount(name string, delta int64)
}

// CommStats are one rank's traffic counters for one communicator —
// point-to-point messages and bytes, collective invocations and contributed
// bytes, and barrier entries (§5.2.4's measured quantities). All fields are
// atomic, so the hot path is a single uncontended add.
type CommStats struct {
	SendMsgs        atomic.Int64
	SendBytes       atomic.Int64
	RecvMsgs        atomic.Int64
	RecvBytes       atomic.Int64
	Collectives     atomic.Int64
	CollectiveBytes atomic.Int64
	// Barriers counts Barrier entries, including the barrier every
	// collective takes internally to protect its exchange slots.
	Barriers atomic.Int64
}

// Stats returns this rank's counters for this communicator. Each rank of
// each communicator (including Split products) has its own CommStats.
func (c *Comm) Stats() *CommStats { return c.stats }

// SetObserver forwards this rank's traffic counts to o as they happen
// (counter names "par.send.*", "par.recv.*", "par.collective.*").
// Communicators produced by Split inherit the observer. A nil observer
// disables forwarding; the atomic CommStats are always maintained.
func (c *Comm) SetObserver(o Observer) { c.obs = o }

// countP2PF64 records one SendF64/RecvF64 message of n float64 values (8n
// bytes). It takes the count, not the slice, so the typed path never boxes
// its payload into payloadBytes's `any`.
func (c *Comm) countP2PF64(msgs, bytes *atomic.Int64, msgName, byteName string, n int) {
	msgs.Add(1)
	bytes.Add(int64(8 * n))
	if c.obs != nil {
		c.obs.AddCount(msgName, 1)
		c.obs.AddCount(byteName, int64(8*n))
	}
}

// countCollective records one collective invocation and this rank's
// contributed payload.
func (c *Comm) countCollective(op string, payload any) {
	n := payloadBytes(payload)
	c.stats.Collectives.Add(1)
	c.stats.CollectiveBytes.Add(n)
	if c.obs != nil {
		c.obs.AddCount("par.collective.calls", 1)
		c.obs.AddCount("par.collective.bytes", n)
		c.obs.AddCount("par.collective."+op, 1)
	}
}

// payloadBytes estimates the wire size of a collective's contribution. The
// common payload types of the model (float64 slices and blocks) are sized exactly
// on a fast path; everything else is walked reflectively, which only
// happens for the coupler's and I/O layer's small struct payloads.
func payloadBytes(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case []float64:
		return int64(8 * len(x))
	case [][]float64:
		var n int64
		for _, s := range x {
			n += int64(8 * len(s))
		}
		return n
	case []float32:
		return int64(4 * len(x))
	case []int:
		return int64(8 * len(x))
	case []int64:
		return int64(8 * len(x))
	case []int32:
		return int64(4 * len(x))
	case []byte:
		return int64(len(x))
	case string:
		return int64(len(x))
	case []string:
		var n int64
		for _, s := range x {
			n += int64(len(s))
		}
		return n
	case bool:
		return 1
	case float64, float32, int, int64, int32, uint64, uint32:
		return 8
	default:
		return reflectBytes(reflect.ValueOf(v), 0)
	}
}

// reflectBytes deep-sizes uncommon payloads, bounded in depth so cyclic or
// pathological values cannot hang the accounting.
func reflectBytes(rv reflect.Value, depth int) int64 {
	if depth > 6 || !rv.IsValid() {
		return 8
	}
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		if rv.Kind() == reflect.Slice && rv.IsNil() {
			return 0
		}
		n := rv.Len()
		if n == 0 {
			return 0
		}
		// Fixed-size element kinds need no walk.
		switch rv.Type().Elem().Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return int64(n) * int64(rv.Type().Elem().Size())
		}
		var total int64
		for i := 0; i < n; i++ {
			total += reflectBytes(rv.Index(i), depth+1)
		}
		return total
	case reflect.String:
		return int64(rv.Len())
	case reflect.Struct:
		var total int64
		for i := 0; i < rv.NumField(); i++ {
			total += reflectBytes(rv.Field(i), depth+1)
		}
		return total
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return 0
		}
		return reflectBytes(rv.Elem(), depth+1)
	case reflect.Map:
		var total int64
		it := rv.MapRange()
		for it.Next() {
			total += reflectBytes(it.Key(), depth+1)
			total += reflectBytes(it.Value(), depth+1)
		}
		return total
	default:
		return int64(rv.Type().Size())
	}
}
