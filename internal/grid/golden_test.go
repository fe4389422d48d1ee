package grid

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/par"
)

// feedGolden writes every number a value holds into h: integers, float bits,
// booleans, and the length of every slice, through structs and arrays and
// into unexported fields. Pointers, interfaces, maps, funcs and channels are
// skipped: they hold shared grids, communicators and observers, not output.
func feedGolden(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			feedGolden(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			feedGolden(h, v.Field(i))
		}
	}
}

func goldenOf(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		feedGolden(h, reflect.Indirect(reflect.ValueOf(v)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Every array of the icosahedral mesh, bit for bit, at levels 0–5: the
// numbering of cells, edges and vertices and the order of every per-cell
// list are part of the model's output (restart layouts, halo plans, the
// regridder's tie rule), so a faster construction must reproduce them.
func TestIcosMeshGolden(t *testing.T) {
	want := []string{
		"64f7530bc49db434",
		"e7d715081881e1a3",
		"6d94c523b4c6bca2",
		"5a657af727b2899e",
		"86e5cdc3a2edd86e",
		"548d9cfa14578d9a",
	}
	for level, w := range want {
		if got := goldenOf(icosMesh(t, level)); got != w {
			t.Errorf("level %d: mesh hash %s, want %s", level, got, w)
		}
	}
}

// Every list of the atmosphere decomposition — owner table, owned, halo and
// edge sets, peers and the four exchange plans — on every rank, for 1–8
// ranks on the level-3 and level-4 meshes the ladder runs.
func TestIcosDecompGolden(t *testing.T) {
	want := map[int][]string{
		3: {
			"1df2f0b047b69251",
			"c2ae124574a47187",
			"73de378c6cd3abaf",
			"11bd0341b101e328",
			"3dd30722b753b0c5",
			"ce02abe82352cd38",
			"addbef1fcf8adc33",
			"bbe34cc26f1c2efd",
		},
		4: {
			"2a71480f8a3aff72",
			"230fac0e8c1702a7",
			"ee9eec348963ab4e",
			"61ecec4fc08b1012",
			"839fd1950e62cdf5",
			"3f011177022cd96e",
			"1be157555075cc02",
			"4cc910dbd03c60dd",
		},
	}
	for level := 3; level <= 4; level++ {
		m := icosMesh(t, level)
		for ranks := 1; ranks <= 8; ranks++ {
			ds := make([]any, ranks)
			errs := make([]error, ranks)
			par.Run(ranks, func(c *par.Comm) {
				ds[c.Rank()], errs[c.Rank()] = NewIcosDecomp(m, c)
			})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			if got := goldenOf(ds...); got != want[level][ranks-1] {
				t.Errorf("level %d, %d ranks: decomposition hash %s, want %s", level, ranks, got, want[level][ranks-1])
			}
		}
	}
}

// The ocean grid and its block decomposition at the five ladder sizes, on
// 1–4 ranks where a layout with that many wet blocks exists.
func TestTripolarGolden(t *testing.T) {
	want := map[[2]int][]string{
		{192, 96}: {"da3d9d21c86a9484", "4d6145473288343e", "ef40e341f00c602c", "17a1a892f90432de", "5806ddc4572284d5"},
		{144, 72}: {"b00f548129d2a608", "d39d4fd530ffe0ce", "b25d5e1b8b772d10", "537b13677aae5086", "03c59f555150ce55"},
		{96, 48}:  {"f9c31965aed34160", "1d50fc771c210190", "5420933efe74cbde", "786e3051ea3a09b4", "097136d53810f3ab"},
		{72, 36}:  {"37e0270c5693c19e", "5b08552edcf3d9aa", "a149d4ed1fbd7fca", "f8e6495b0de3c086", "22f039f26e501675"},
		{48, 24}:  {"0acdccc89c6ca2cd", "3ef0bbdbe127af33", "39b3ee5c83d2c335", "ff1802aaedd2f6f3", "949a259aadb4cf94"},
	}
	for size, w := range want {
		g, err := NewTripolar(size[0], size[1], 10)
		if err != nil {
			t.Fatal(err)
		}
		got := []string{goldenOf(g)}
		for ranks := 1; ranks <= 4; ranks++ {
			ds := make([]any, ranks)
			errs := make([]error, ranks)
			par.Run(ranks, func(c *par.Comm) {
				ds[c.Rank()], errs[c.Rank()] = NewTripolarDecomp(g, c, 1)
			})
			if errs[0] != nil {
				got = append(got, errs[0].Error())
				continue
			}
			got = append(got, goldenOf(ds...))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%dx%d: hash %d is %s, want %s", size[0], size[1], i, got[i], w[i])
			}
		}
	}
}
