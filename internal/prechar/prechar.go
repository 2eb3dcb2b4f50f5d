// Package prechar embeds the checked-in, fully characterised 0.5 um timing
// library (produced by cmd/characterize over the default 5-point grid). It
// plays the role of a vendor's pre-characterised .lib artefact: consumers of
// STA, ITR and ATPG load it instead of re-running the 30-second
// characterisation sweep.
//
// The library is loaded through the verifying store in strict mode: every
// cell's bytes are checked against the embedded integrity manifest, so a bad
// regeneration (or a corrupted checkout) fails loudly instead of silently
// skewing downstream timing.
//
// Regenerate with:
//
//	go run ./cmd/characterize -out internal/prechar/lib05.json
//
// (which also rewrites lib05.json.manifest.json; move it to
// lib05.manifest.json, or run go run gen_manifest.go here).
package prechar

import (
	_ "embed"
	"fmt"
	"os"
	"sync"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/store"
)

//go:embed lib05.json
var data []byte

//go:embed lib05.manifest.json
var manifestData []byte

var (
	once sync.Once
	lib  *core.Library
	err  error
)

// Library returns the embedded characterised library, verified against its
// embedded manifest (store.Load in strict mode).
func Library() (*core.Library, error) {
	once.Do(func() {
		lib, _, err = store.Load(data, manifestData, store.LoadOptions{Strict: true})
	})
	return lib, err
}

// MustLibrary returns the embedded library or panics. Intended for tests,
// benchmarks and examples where a corrupt artefact is a build error.
func MustLibrary() *core.Library {
	l, e := Library()
	if e != nil {
		panic("prechar: embedded library invalid: " + e.Error())
	}
	return l
}

// Raw returns the embedded library and manifest bytes (for tests that need
// a real artefact to corrupt).
func Raw() (libBytes, manBytes []byte) { return data, manifestData }

// Load is the library loader of the command-line tools. The empty path
// selects the embedded Library; any other path is read through
// store.LoadFile: corrupt cells are quarantined onto the analytic
// fallback, and strict refuses any degraded or unverified library
// (without strict, a library without a manifest loads unverified). The
// no-manifest warning and each quarantined cell are printed to stderr,
// prefixed with the command name.
func Load(command, path string, strict bool, met *engine.Metrics) (*core.Library, error) {
	if path == "" {
		return Library()
	}
	lib, rep, err := store.LoadFile(path, store.LoadOptions{
		Strict:          strict,
		AllowUnverified: !strict,
		Metrics:         met,
	})
	if err != nil {
		return nil, err
	}
	if rep.Unverified {
		fmt.Fprintf(os.Stderr, "%s: %s has no manifest; loaded unverified (use -strict-lib to refuse)\n", command, path)
	}
	for _, q := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "%s: quarantined %s\n", command, q)
	}
	return lib, nil
}
