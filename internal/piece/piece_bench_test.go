package piece

import (
	"math/rand"
	"testing"
)

func benchBitfields(size int) (*Bitfield, *Bitfield) {
	rng := rand.New(rand.NewSource(1))
	a := NewBitfield(size)
	b := NewBitfield(size)
	for i := 0; i < size; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i)
		}
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return a, b
}

func BenchmarkBitfieldNeeds(b *testing.B) {
	x, y := benchBitfields(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Needs(y)
	}
}

func BenchmarkBitfieldMissingFrom(b *testing.B) {
	x, y := benchBitfields(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.MissingFrom(y)
	}
}

func BenchmarkRarestFirst(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	avail := NewAvailability(512)
	for i := 0; i < 512; i++ {
		for j := 0; j < rng.Intn(20); j++ {
			avail.AddPiece(i)
		}
	}
	candidates := make([]int, 128)
	for i := range candidates {
		candidates[i] = rng.Intn(512)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		avail.RarestFirst(rng, candidates)
	}
}

func BenchmarkStorePut(b *testing.B) {
	m, err := SyntheticManifest(64, 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 64)
	for i := range data {
		data[i] = SyntheticPiece(i, 16<<10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(m)
		for j := 0; j < 64; j++ {
			if err := s.Put(j, data[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStoreAddHeld is the duplicate-delivery fast path: Add of a piece
// the store already holds must cost one read-locked probe — no hash, no
// copy, no allocation.
func BenchmarkStoreAddHeld(b *testing.B) {
	m, err := SyntheticManifest(64, 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore(m)
	data := SyntheticPiece(7, 16<<10)
	if err := s.Put(7, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if added, err := s.Add(7, data); added || err != nil {
			b.Fatalf("Add of held piece = (%v, %v)", added, err)
		}
	}
}
