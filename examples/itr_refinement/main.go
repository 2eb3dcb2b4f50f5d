// ITR refinement: the Section 5 narrative on c17 — starting from the STA
// windows (all transition states unknown), primary input values are
// assigned one at a time and the min-max timing windows shrink, with
// impossible transitions dropping out entirely.
package main

import (
	"fmt"
	"log"

	"sstiming/internal/benchgen"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
)

func main() {
	lib, err := prechar.Library()
	if err != nil {
		log.Fatal(err)
	}
	c := benchgen.C17()

	// Watch the windows at PO 22 (driven by NAND(10, 16)).
	const watch = "22"

	steps := []struct {
		desc string
		net  string
		val  nineval.Value
	}{
		{"no values assigned (STA)", "", nineval.VXX},
		{"PI 1 falls (10)", "1", nineval.V10},
		{"PI 3 falls (10)", "3", nineval.V10},
		{"PI 2 steady 1 (11)", "2", nineval.V11},
		{"PI 6 steady 1 (11)", "6", nineval.V11},
		{"PI 7 steady 0 (00)", "7", nineval.V00},
	}

	cube := nineval.Cube{}
	fmt.Printf("incremental timing refinement on c17, watching net %s\n\n", watch)
	fmt.Printf("%-26s %-6s %-24s %-24s\n", "after assigning", "states", "rise window (ns)", "fall window (ns)")
	for _, st := range steps {
		if st.net != "" {
			cube[st.net] = st.val
		}
		res, err := sta.Refine(c, cube, sta.Options{Lib: lib, Mode: sta.ModeProposed})
		if err != nil {
			log.Fatal(err)
		}
		li := res.Lines[watch]
		fmt.Printf("%-26s (%s,%s) %-24s %-24s\n",
			st.desc, li.SRise, li.SFall, window(li, true), window(li, false))
	}

	fmt.Println("\nEvery surviving window is contained in the previous step's window;")
	fmt.Println("a state of -1 means the transition cannot occur and its timing fields")
	fmt.Println("are undefined (Section 5.1).")
}

func window(li *sta.LineTiming, rising bool) string {
	var ok bool
	var w sta.Window
	if rising {
		ok, w = li.HasRise(), li.Rise
	} else {
		ok, w = li.HasFall(), li.Fall
	}
	if !ok {
		return "undefined (S = -1)"
	}
	return fmt.Sprintf("A[%.3f, %.3f]", w.AS*1e9, w.AL*1e9)
}
