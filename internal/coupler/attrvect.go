// Package coupler is the CPL7/MCT substitute of the reproduction (§5.1.1,
// §5.2.4): the attribute-vector data type, the global segment map (GSMap)
// describing a decomposition, the Router built from two GSMaps, the
// rearranger that moves distributed fields between decompositions (with the
// baseline all-to-all and the optimized non-blocking point-to-point
// implementations), and coupling clocks with alarms.
package coupler

import "fmt"

// AttrVect is MCT's fundamental distributed data type: a set of named
// real-valued attributes over the local points of a decomposition. Storage
// is field-major: field f occupies Data[f*LSize : (f+1)*LSize].
type AttrVect struct {
	Fields []string
	index  map[string]int
	LSize  int
	Data   []float64
}

// NewAttrVect creates a zeroed attribute vector with the given fields over
// lsize local points. Duplicate field names are rejected.
func NewAttrVect(fields []string, lsize int) (*AttrVect, error) {
	if lsize < 0 {
		return nil, fmt.Errorf("coupler: negative local size %d", lsize)
	}
	av := &AttrVect{
		Fields: append([]string(nil), fields...),
		index:  make(map[string]int, len(fields)),
		LSize:  lsize,
		Data:   make([]float64, len(fields)*lsize),
	}
	for i, f := range fields {
		if _, dup := av.index[f]; dup {
			return nil, fmt.Errorf("coupler: duplicate field %q", f)
		}
		av.index[f] = i
	}
	return av, nil
}

// Field returns the slice of the named attribute, aliasing internal storage.
func (av *AttrVect) Field(name string) ([]float64, error) {
	i, ok := av.index[name]
	if !ok {
		return nil, fmt.Errorf("coupler: no field %q (have %v)", name, av.Fields)
	}
	return av.Data[i*av.LSize : (i+1)*av.LSize], nil
}

// MustField is Field that panics on unknown names.
func (av *AttrVect) MustField(name string) []float64 {
	f, err := av.Field(name)
	if err != nil {
		panic(err)
	}
	return f
}

// NFields returns the attribute count.
func (av *AttrVect) NFields() int { return len(av.Fields) }
