package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/grid"
)

// groupThousands writes n with a space between groups of three digits.
func groupThousands(n int64) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + " " + s[i:]
	}
	return s
}

// DESIGN.md §3's ladder table must be the one Configurations() builds, row
// for row.
func TestDesignLadderMatchesConfigurations(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no §3")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows []string
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| Label") {
			rows = append(rows, line)
		}
	}
	var want []string
	for _, c := range Configurations() {
		cells, _, _ := grid.IcosCounts(c.AtmLevel)
		want = append(want, fmt.Sprintf("| %s | %d km | %d km | G%d (%s cells) × %d | %d×%d × %d |",
			c.Label, c.PaperAtmKm, c.PaperOcnKm, c.AtmLevel, groupThousands(cells), c.AtmNLev,
			c.OcnNX, c.OcnNY, c.OcnNLev))
	}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Errorf("DESIGN.md §3 rows:\n%s\nConfigurations():\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}
