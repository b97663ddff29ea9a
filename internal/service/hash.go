package service

import (
	"encoding/binary"
	"math"

	"partfeas"
)

// appendInstanceKey appends an instance's canonical encoding to b: two
// instances encode the same iff every field the test's decisions can
// depend on is equal — scheduler, and each task's and machine's name
// and parameters in input order (names participate in the solver's
// deterministic tie-breaks, so they are part of the identity; input
// order matters because Assignment indices are input-order).
//
// The pool keys on the full encoding, not a digest, so distinct
// instances can never collide into the same cache slot; the FNV hash in
// shardOf is only used to spread keys across pool shards.
func appendInstanceKey(b []byte, in partfeas.Instance) []byte {
	b = append(b, byte(in.Scheduler))
	b = binary.AppendUvarint(b, uint64(len(in.Tasks)))
	for _, t := range in.Tasks {
		b = binary.AppendUvarint(b, uint64(len(t.Name)))
		b = append(b, t.Name...)
		b = binary.AppendVarint(b, t.WCET)
		b = binary.AppendVarint(b, t.Period)
	}
	b = binary.AppendUvarint(b, uint64(len(in.Platform)))
	for _, m := range in.Platform {
		b = binary.AppendUvarint(b, uint64(len(m.Name)))
		b = append(b, m.Name...)
		b = binary.AppendUvarint(b, math.Float64bits(m.Speed))
	}
	return b
}

// shardOf spreads keys across nShards pool shards by FNV-1a.
func shardOf(key []byte, nShards int) int {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return int(h % uint64(nShards))
}
