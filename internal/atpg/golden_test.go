package atpg

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
)

var update = flag.Bool("update", false, "rewrite testdata/search_golden.json from the current code")

const searchGoldenFile = "testdata/search_golden.json"

// searchGolden is one fault's recorded search: its outcome, effort
// counters and the test pattern (V1/V2 over the primary inputs in
// declaration order, empty when no test was found).
type searchGolden struct {
	Outcome       string `json:"outcome"`
	Decisions     int    `json:"decisions"`
	Backtracks    int    `json:"backtracks"`
	LeavesTried   int    `json:"leaves_tried"`
	LeavesExcited int    `json:"leaves_excited"`
	Test          string `json:"test,omitempty"`
}

func patternString(c *netlist.Circuit, tp *TwoPattern) string {
	if tp == nil {
		return ""
	}
	var b strings.Builder
	for _, pi := range c.PIs {
		fmt.Fprint(&b, tp.V1[pi])
	}
	b.WriteByte('/')
	for _, pi := range c.PIs {
		fmt.Fprint(&b, tp.V2[pi])
	}
	return b.String()
}

// TestSearchGolden pins the PODEM search itself — every decision,
// backtrack, validated leaf and generated pattern — against a recording,
// with and without ITR pruning. The ITR cross-checks compare two timing
// paths over one shared search; this golden catches a change to the
// search (implication, ordering, budget accounting) that both paths would
// share. Regenerate with -update only for an intended search change.
func TestSearchGolden(t *testing.T) {
	lib := prechar.MustLibrary()
	got := map[string]searchGolden{}
	for _, bench := range []string{"c17", "c432", "c880"} {
		c, err := benchgen.Load(bench)
		if err != nil {
			t.Fatal(err)
		}
		faults := RandomFaults(c, 40, 31, 0.12e-9)
		for _, useITR := range []bool{false, true} {
			for i, f := range faults {
				r, err := GenerateTest(c, f, Options{Lib: lib, UseITR: useITR, MaxBacktracks: 48})
				if err != nil {
					t.Fatalf("%s fault %d: %v", bench, i, err)
				}
				got[fmt.Sprintf("%s/itr=%v/%02d", bench, useITR, i)] = searchGolden{
					Outcome:       r.Outcome.String(),
					Decisions:     r.Decisions,
					Backtracks:    r.Backtracks,
					LeavesTried:   r.LeavesTried,
					LeavesExcited: r.LeavesExcited,
					Test:          patternString(c, r.Test),
				}
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(searchGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(searchGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]searchGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing", key)
		} else if g != w {
			t.Errorf("%s: got %+v, golden %+v", key, g, w)
		}
	}
}
