package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"

	"dmp/internal/emu"
)

// Run is a pure function of its inputs: the model contains no global state,
// no time or randomness source, and no scheduling dependence — the same
// (program, input, config) triple always produces the same Stats. The
// simulation memoization layer (internal/simcache) relies on this to replay
// cached results, keyed by the canonical forms below.

// AppendCanonical appends a deterministic rendering of the configuration to
// dst. Every field participates via Go's struct formatting, so adding a
// Config field automatically changes the canonical form (and thereby
// invalidates stale cache entries keyed on it). The Tracer hook is excluded:
// it is an observer, not a simulation parameter, and its rendering (an
// interface pointer) would differ between otherwise identical runs.
func (c Config) AppendCanonical(dst []byte) []byte {
	c.Tracer = nil
	return fmt.Appendf(dst, "%+v", c)
}

// StatsSchema returns a short stable fingerprint of the Stats wire shape
// (field names and types, recursively). The simulation cache folds it into
// its keys so that extending Stats — which would
// otherwise make old cache entries decode with silently zero-valued new
// fields — turns stale entries into misses instead.
func StatsSchema() string {
	statsSchemaOnce.Do(func() {
		statsSchemaHex = schemaOf(reflect.TypeOf(Stats{}))
	})
	return statsSchemaHex
}

var (
	statsSchemaOnce sync.Once
	statsSchemaHex  string
)

// SchemaOf returns the wire-shape fingerprint of v's type, using the same
// walk as StatsSchema. The sampling layer folds the fingerprint of its own
// result type into simulation-cache keys the same way Stats is.
func SchemaOf(v any) string { return schemaOf(reflect.TypeOf(v)) }

// schemaOf fingerprints a type's wire shape: struct field names, JSON tags
// and element types, walked recursively. Type names are deliberately left
// out — JSON carries none, so two structurally identical types have the same
// wire shape; recursion is cut with the ordinal of the struct's first visit.
func schemaOf(t reflect.Type) string {
	h := sha256.New()
	seen := map[reflect.Type]int{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		if ord, ok := seen[t]; ok {
			fmt.Fprintf(h, "cycle(%d)", ord)
			return
		}
		switch t.Kind() {
		case reflect.Struct:
			seen[t] = len(seen)
			fmt.Fprint(h, "struct{")
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				fmt.Fprintf(h, "%s %q ", f.Name, f.Tag.Get("json"))
				walk(f.Type)
				fmt.Fprint(h, ";")
			}
			fmt.Fprint(h, "}")
		case reflect.Slice, reflect.Array, reflect.Pointer:
			fmt.Fprintf(h, "%s of ", t.Kind())
			walk(t.Elem())
		default:
			fmt.Fprintf(h, "%s", t)
		}
	}
	walk(t)
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Machine returns the functional machine that supplies the correct execution
// path. After Run completes it holds the final architectural state (output
// stream, registers, retired count), which the differential test suite
// compares against a pure emulator run.
func (s *Sim) Machine() *emu.Machine { return s.tr.m }
