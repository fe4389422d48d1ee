package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the production functions that no production code calls
// and that stay anyway. Each maps to why:
//   - a DESIGN.md §4 ID: the experiment's generator, or the test that
//     EXPERIMENTS.md names as checking it, calls the function;
//   - "item N" or "item N(x)": the open ROADMAP item that will wire it;
//   - a test name: a cross-package fixture that contract test cannot do
//     without.
//
// Keys are "pkg.Func", "pkg.T.M" or "pkg.(*T).M", pkg being the directory
// minus "internal/".
var reachAllow = map[string]string{
	// E2 (§5.2.2): BenchmarkOceanCompaction runs the compacted sweep and
	// both rank mappings; the ocean tests that check it reach the rest
	// (the saving, the rebuilt halo topology, the packed index maps).
	"ocean.(*Ocean).Compact":             "E2",
	"ocean.(*Ocean).TracerSweepFull":     "E2",
	"ocean.(*Ocean).TracerSweepCompact":  "E2",
	"ocean.(*Compacted).NWet":            "E2",
	"ocean.(*Compacted).FullToCompact":   "E2",
	"ocean.(*Compacted).CompactToGlobal": "E2",
	"ocean.(*Compacted).WorkSaving":      "E2",
	"ocean.(*Compacted).WorkSaving3D":    "E2",
	"ocean.BlockOwner":                   "E2",
	"ocean.BalancedOwner":                "E2",
	"ocean.(*ColumnOwner).LoadImbalance": "E2",
	"ocean.(*ColumnOwner).HaloNeighbors": "E2",
	"ocean.ResourceSaving":               "E2",
	"grid.NewTripolarDecompLayout":       "A1-A5", // BenchmarkAblationHaloWidth's pinned layouts
	"precision.MaskedAreaRMSD":           "E3",    // ocean: TestMixedPrecisionRMSD
	"precision.PaperThresholds":          "E3",    // both E3 generator tests
	"precision.RelL2":                    "E3",    // atmos: TestMixedPrecisionAtmosWithinThreshold
	"atmos.(*Model).SurfaceVorticity":    "E3",    // its relative L2 of vorticity
	"coupler.Rearrange":                  "E4",    // BenchmarkCouplerRearranger
	"coupler.NewGSMap":                   "E4",    // online GSMap build, checked against the offline one
	"coupler.DecodeGSMap":                "E4",    // the offline preprocessing file's read side
	"coupler.DecodeRouter":               "E4",    // the same, for the router
	"pario.WriteSingle":                  "E5",    // BenchmarkParallelIO's single-file funnel
	"pp.NewHost":                         "E6",    // BenchmarkPortabilityBackends' Host space
	"pp.NewCPE":                          "E6",    // and its simulated-CPE space
	"perfmodel.(*Curve).MaxAnchorError":  "F8a",   // TestCalibrationReproducesAllAnchors
	"typhoon.FindCenter":                 "F1/F6", // TestResolutionContrast's tracker
	"precision.AreaWeightedRMSD":         "item 16",
	"aiphys.(*Suite).Save":               "item 3",
	"aiphys.LoadWeights":                 "item 3",
	"par.(*Comm).BarrierTimeout":         "item 8(a)",
	"machine.(*Machine).EffectiveHaloBW": "item 22", // with CrossSupernodeFraction and their two tests
	"machine.(*Machine).Validate":        "item 22", // with TestValidateCatchesBadMachines

	// Both masks come from one analytic function, so no configuration has
	// an atmosphere cell without a wet ocean column in reach; only a dried
	// ocean column exercises the land model's adoption of such cells.
	"grid.(*Tripolar).SetLand": "TestUnmappedCellsRoutedToLand",
}

// TestEveryFunctionIsReached fails on a production func or method that no
// production code calls, unless reachAllow says why it stays, and on an
// allowlist entry that no longer holds.
func TestEveryFunctionIsReached(t *testing.T) {
	root := "../.."
	fns, err := unreached(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllow(reachAllow, fns, designIDs(t), openItems(t), testSources(t, root)) {
		t.Error(p)
	}
}

// TestCheckAllowRejectsBadEntries feeds the allowlist check one entry of
// each kind it must refuse.
func TestCheckAllowRejectsBadEntries(t *testing.T) {
	fns := map[string]string{"a.F": "internal/a/a.go:3", "a.G": "internal/a/a.go:9", "a.H": "internal/a/a.go:12"}
	ids := map[string]bool{"E4": true}
	items := map[string]bool{"16": true, "8(a)": true}
	tests := map[string]string{"TestUsesH": "x := a.H()", "TestOther": "y := a.F()"}
	good := map[string]string{"a.F": "E4", "a.G": "item 8(a)", "a.H": "TestUsesH"}
	if p := checkAllow(good, fns, ids, items, tests); len(p) != 0 {
		t.Fatalf("a sound allowlist is refused: %q", p)
	}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  string
	}{
		{"unlisted", map[string]string{"a.F": "E4", "a.G": "item 16"}, "internal/a/a.go:12"},
		{"no reason", map[string]string{"a.F": "E4", "a.G": "item 16", "a.H": "tests"}, "a.H"},
		{"unknown ID", map[string]string{"a.F": "E99", "a.G": "item 16", "a.H": "TestUsesH"}, "a.F"},
		{"closed item", map[string]string{"a.F": "E4", "a.G": "item 20", "a.H": "TestUsesH"}, "a.G"},
		{"missing test", map[string]string{"a.F": "E4", "a.G": "item 16", "a.H": "TestGone"}, "a.H"},
		{"test not naming it", map[string]string{"a.F": "E4", "a.G": "item 16", "a.H": "TestOther"}, "a.H"},
		{"gone or reached", map[string]string{"a.F": "E4", "a.G": "item 16", "a.H": "TestUsesH", "b.Gone": "E4"}, "b.Gone"},
	} {
		p := checkAllow(tc.allow, fns, ids, items, tests)
		if len(p) != 1 || !strings.Contains(p[0], tc.want) {
			t.Errorf("%s: problems %q, want one naming %s", tc.name, p, tc.want)
		}
	}
}

// checkAllow returns one line per problem: an unreached function the
// allowlist does not name (with its file:line), an entry whose reason is
// not a §4 ID, an open ROADMAP item or a test that names the function, and
// a stale entry, whose function is gone or now reached by production code.
func checkAllow(allow, fns map[string]string, ids, items map[string]bool, tests map[string]string) []string {
	var out []string
	for _, key := range sortedKeys(fns) {
		if _, ok := allow[key]; !ok {
			out = append(out, fmt.Sprintf("%s: %s is called by no production code; call it, delete it, or say in reachAllow why it stays", fns[key], key))
		}
	}
	for _, key := range sortedKeys(allow) {
		why := allow[key]
		if _, ok := fns[key]; !ok {
			out = append(out, fmt.Sprintf("reachAllow[%q] is stale: the function is gone or production code now calls it", key))
			continue
		}
		name := key[strings.LastIndex(key, ".")+1:]
		switch item, isItem := strings.CutPrefix(why, "item "); {
		case ids[why]:
		case isItem:
			if !items[item] {
				out = append(out, fmt.Sprintf("reachAllow[%q] = %q: no open ROADMAP item %s", key, why, item))
			}
		case strings.HasPrefix(why, "Test"):
			src, ok := tests[why]
			if !ok {
				out = append(out, fmt.Sprintf("reachAllow[%q] = %q: no such test", key, why))
			} else if !regexp.MustCompile(`\b` + name + `\b`).MatchString(src) {
				out = append(out, fmt.Sprintf("reachAllow[%q] = %q: that test's file does not name %s", key, why, name))
			}
		default:
			out = append(out, fmt.Sprintf("reachAllow[%q] = %q: not a DESIGN.md §4 ID, an open ROADMAP item or a test", key, why))
		}
	}
	return out
}

// unreached parses every non-test Go file under root (the root module, its
// cmd/ and examples/ commands and the bench/ module) and returns each func
// or method whose name no non-test file uses outside the func's own
// declaration, mapped to its file:line. The scan is by name, without type
// information: a name that some production code uses anywhere counts as
// used for every func that bears it.
func unreached(root string) (map[string]string, error) {
	type fn struct {
		key, name, pos string
		own            int // uses of its name inside its own declaration
	}
	var fns []fn
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && file != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, file)
		rel = filepath.ToSlash(rel)
		pkg := strings.TrimPrefix(path.Dir(rel), "internal/")
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decl[fd.Name] = true
			if exempt(fd) {
				continue
			}
			own := 0
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != fd.Name && id.Name == fd.Name.Name {
					own++
				}
				return true
			})
			fns = append(fns, fn{pkg + "." + recvPrefix(fd) + fd.Name.Name, fd.Name.Name,
				fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line), own})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	out := map[string]string{}
	for _, f := range fns {
		if uses[f.name] == f.own {
			out[f.key] = f.pos
		}
	}
	return out, err
}

// recvPrefix renders a method's receiver as "T." or "(*T).", type
// parameters dropped, and a plain func's as "".
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	typ, star := fd.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if star {
		return "(*" + typ.(*ast.Ident).Name + ")."
	}
	return typ.(*ast.Ident).Name + "."
}

// exempt reports whether the runtime or the standard library calls fd by
// its name, so that no source file needs to.
func exempt(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return fd.Name.Name == "main" || fd.Name.Name == "init"
	}
	switch fd.Name.Name {
	case "String", // fmt.Stringer
		"Error",                          // error
		"Header", "Write", "WriteHeader", // http.ResponseWriter (Write: io.Writer)
		"Close": // io.Closer
		return true
	}
	return false
}

// openItems returns the IDs of ROADMAP.md's open items, "N" and "N(x)" for
// each lettered part: every "(N)" bullet of its "Open items" section that
// the section's "Closed items:" paragraph does not close.
func openItems(t *testing.T) map[string]bool {
	doc, err := os.ReadFile("../../ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## Open items")
	if !ok {
		t.Fatal("ROADMAP.md has no Open items section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	closed := map[string]bool{}
	if _, par, ok := strings.Cut(sec, "\nClosed items:"); ok {
		par, _, _ = strings.Cut(par, "\n\n")
		for _, m := range regexp.MustCompile(`(\d+) \(PR \d+\)`).FindAllStringSubmatch(par, -1) {
			closed[m[1]] = true
		}
	}
	items := map[string]bool{}
	item := ""
	bullet, part := regexp.MustCompile(`^- \*\*\((\d+)\)`), regexp.MustCompile(`^  - \*\(([a-z])\)`)
	for _, line := range strings.Split(sec, "\n") {
		if m := bullet.FindStringSubmatch(line); m != nil {
			item = m[1]
			if !closed[item] {
				items[item] = true
			}
		} else if m := part.FindStringSubmatch(line); m != nil && items[item] {
			items[item+"("+m[1]+")"] = true
		}
	}
	return items
}

// testSources maps every Test function under root to the text of the
// _test.go file that declares it.
func testSources(t *testing.T, root string) map[string]string {
	out := map[string]string{}
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(b), -1) {
			out[m[1]] = string(b)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
