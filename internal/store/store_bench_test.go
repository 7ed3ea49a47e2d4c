package store

import (
	"testing"

	"repro/internal/datagen"
)

func benchStore(b *testing.B) *Store {
	b.Helper()
	st := New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 2000, Seed: 1}))
	st.Build()
	return st
}

// BenchmarkMatchBoundSubject measures index probes with a bound subject.
func BenchmarkMatchBoundSubject(b *testing.B) {
	st := benchStore(b)
	var subjects []ID
	st.ForEach(func(t IDTriple) {
		if len(subjects) < 1024 {
			subjects = append(subjects, t.S)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := st.Match(subjects[i%len(subjects)], Wildcard, Wildcard)
		for it.Next() {
		}
	}
}

// BenchmarkMatchBoundPredicate measures POS range scans.
func BenchmarkMatchBoundPredicate(b *testing.B) {
	st := benchStore(b)
	var preds []ID
	st.ForEach(func(t IDTriple) {
		if len(preds) < 16 {
			preds = append(preds, t.P)
		}
	})
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		it := st.Match(Wildcard, preds[i%len(preds)], Wildcard)
		for it.Next() {
			n++
		}
	}
	_ = n
}

// BenchmarkCount measures the O(log n) exact count.
func BenchmarkCount(b *testing.B) {
	st := benchStore(b)
	var preds []ID
	st.ForEach(func(t IDTriple) {
		if len(preds) < 16 {
			preds = append(preds, t.P)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Count(Wildcard, preds[i%len(preds)], Wildcard)
	}
}

// BenchmarkBuild measures index construction (sort + dedup + permutations).
func BenchmarkBuild(b *testing.B) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 2000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		st.AddAll(triples)
		st.Build()
	}
}
