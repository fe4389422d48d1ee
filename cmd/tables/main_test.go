package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestEveryExperimentPrintsHeaderAndRows(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, []string{e.id}); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
			if want := "=== " + e.id + " — " + e.title + " ==="; lines[0] != want {
				t.Errorf("header %q, want %q", lines[0], want)
			}
			rows := 0
			for _, l := range lines[1:] {
				if strings.TrimSpace(l) != "" {
					rows++
				}
			}
			if rows == 0 {
				t.Errorf("no rows after the header:\n%s", buf.String())
			}
		})
	}
}

func TestUnknownExperimentListsValidIDs(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"T1", "F9"})
	if err == nil {
		t.Fatal("unknown ID accepted")
	}
	for _, id := range experimentIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("printed before rejecting the ID list:\n%s", buf.String())
	}
}

// TestDefaultIDsMatchDesignIndex pins the default experiment list to the
// rows of DESIGN.md §4 whose regeneration target is this command, in the
// order the table lists them.
func TestDefaultIDsMatchDesignIndex(t *testing.T) {
	var ids []string
	for _, row := range designIndex(t) {
		id, target := row[0], row[1]
		if !strings.Contains(target, "`cmd/tables") {
			continue
		}
		if want := "`cmd/tables -exp " + id + "`"; target != want {
			t.Errorf("row %s names %s, want %s", id, target, want)
		}
		ids = append(ids, id)
	}
	if got := experimentIDs(); !reflect.DeepEqual(got, ids) {
		t.Errorf("default IDs %v, DESIGN.md §4 rows for cmd/tables %v", got, ids)
	}
}

// designIndex returns the rows of DESIGN.md §4's per-experiment table, in
// order, each as its ID and its regeneration target.
func designIndex(t *testing.T) [][2]string {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 4. ")
	if !ok {
		t.Fatal("DESIGN.md has no §4")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows [][2]string
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		id := strings.TrimSpace(cells[1])
		if id == "ID" || strings.HasPrefix(id, "---") {
			continue
		}
		rows = append(rows, [2]string{id, strings.TrimSpace(cells[len(cells)-2])})
	}
	return rows
}

// designIDs returns the set of DESIGN.md §4 experiment IDs.
func designIDs(t *testing.T) map[string]bool {
	ids := map[string]bool{}
	for _, row := range designIndex(t) {
		ids[row[0]] = true
	}
	return ids
}
