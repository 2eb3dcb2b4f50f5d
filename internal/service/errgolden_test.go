package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"sstiming/internal/benchgen"
)

// TestErrorBodyGolden pins the exact error text of three 422 bodies, so a
// refactor of the analysis layers beneath the handlers cannot reword what
// clients see. The strings were recorded once and are not regenerated.
func TestErrorBodyGolden(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	c17 := benchText(t, benchgen.C17())
	nand5 := "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(z)\nz = NAND(a, b, c, d, e)\n"
	cases := []struct {
		name, path string
		body       map[string]any
		want       string
	}{
		{"refine inconsistent cube", "/refine",
			map[string]any{"netlist": c17, "cube": map[string]string{"1": "11", "3": "11", "10": "11"}},
			"itr: cube is logically inconsistent: 1=11 10=11 3=11"},
		{"refine unknown net", "/refine",
			map[string]any{"netlist": c17, "cube": map[string]string{"1": "01", "no_such_net": "01"}},
			"itr: tgraph: cube names a net outside the circuit: \"no_such_net\""},
		{"analyze cell not in library", "/analyze",
			map[string]any{"netlist": nand5},
			"sta: tgraph: no library cell \"NAND5\" for gate \"z\""},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, hs.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422: %s", tc.name, resp.StatusCode, raw)
			continue
		}
		var e ErrorJSON
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: %v: %s", tc.name, err, raw)
		}
		if e.Error != tc.want {
			t.Errorf("%s: error\n  got  %q\n  want %q", tc.name, e.Error, tc.want)
		}
	}
}
