package isa

import (
	"bytes"
	"crypto/sha256"
)

// Canonical serialization and content hashing.
//
// The simulation memoization layer (internal/simcache) keys cached runs by a
// stable content hash of the binary it simulated. The DMP1 container format
// is already fully deterministic — instructions are written in code order and
// the annotation section is written in ascending branch-address order — so
// the canonical byte form of a program is simply its serialized container.
// Two independent compiles of the same source therefore hash identically,
// and any change to the code segment, the symbols, or the diverge-branch
// annotation sidecar changes the hash.

// AppendCanonical appends the canonical (deterministic) byte serialization
// of the program, including its annotation sidecar, to dst and returns the
// extended slice.
func (p *Program) AppendCanonical(dst []byte) []byte {
	buf := bytes.NewBuffer(dst)
	// WriteTo cannot fail against a bytes.Buffer: every sub-writer it uses
	// is infallible on an in-memory buffer.
	if _, err := p.WriteTo(buf); err != nil {
		panic("isa: canonical serialization failed: " + err.Error())
	}
	return buf.Bytes()
}

// Hash returns the SHA-256 content hash of the program's canonical
// serialization. The hash covers the code segment, entry point, function
// symbols, global size and the diverge-branch annotations; it is stable
// across processes and across independent compiles of the same source.
func (p *Program) Hash() [sha256.Size]byte {
	return sha256.Sum256(p.AppendCanonical(nil))
}
