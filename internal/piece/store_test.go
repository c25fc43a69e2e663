package piece

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func testContent(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return buf
}

func TestNewManifest(t *testing.T) {
	content := testContent(100)
	m, err := NewManifest(content, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 4 {
		t.Errorf("NumPieces = %d, want 4", m.NumPieces())
	}
	if m.PieceLength(0) != 30 || m.PieceLength(3) != 10 {
		t.Errorf("lengths: %d, %d", m.PieceLength(0), m.PieceLength(3))
	}
	if m.PieceLength(-1) != 0 || m.PieceLength(4) != 0 {
		t.Error("out-of-range PieceLength not 0")
	}
}

func TestNewManifestExactMultiple(t *testing.T) {
	m, err := NewManifest(testContent(90), 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 3 || m.PieceLength(2) != 30 {
		t.Errorf("pieces=%d lastLen=%d", m.NumPieces(), m.PieceLength(2))
	}
}

func TestNewManifestErrors(t *testing.T) {
	if _, err := NewManifest(nil, 10); err == nil {
		t.Error("empty content accepted")
	}
	if _, err := NewManifest(testContent(10), 0); err == nil {
		t.Error("zero piece size accepted")
	}
}

func TestStorePutGetVerify(t *testing.T) {
	content := testContent(100)
	m, _ := NewManifest(content, 40)
	s := NewStore(m)

	if err := s.Put(0, content[:40]); err != nil {
		t.Fatal(err)
	}
	if !s.Has(0) || s.Count() != 1 {
		t.Error("piece not recorded")
	}
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[:40]) {
		t.Error("Get returned wrong data")
	}
	// Returned slice is a copy.
	got[0] ^= 0xff
	again, _ := s.Get(0)
	if !bytes.Equal(again, content[:40]) {
		t.Error("Get exposes internal buffer")
	}

	if err := s.Put(1, content[:40]); !errors.Is(err, ErrHashMismatch) {
		t.Errorf("forged piece err = %v, want ErrHashMismatch", err)
	}
	if err := s.Put(99, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("bad index err = %v, want ErrOutOfRange", err)
	}
	if _, err := s.Get(2); !errors.Is(err, ErrNotHeld) {
		t.Errorf("missing Get err = %v, want ErrNotHeld", err)
	}
	// Idempotent re-put.
	if err := s.Put(0, content[:40]); err != nil {
		t.Errorf("re-put err = %v", err)
	}
}

func TestSeedStoreAndAssemble(t *testing.T) {
	content := testContent(100)
	m, _ := NewManifest(content, 33)
	seed, err := NewSeedStore(m, content)
	if err != nil {
		t.Fatal(err)
	}
	if !seed.Complete() {
		t.Fatal("seed not complete")
	}
	out, err := seed.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, content) {
		t.Error("assembled file differs")
	}

	partial := NewStore(m)
	if _, err := partial.Assemble(); !errors.Is(err, ErrNotHeld) {
		t.Errorf("partial Assemble err = %v", err)
	}
	if _, err := NewSeedStore(m, content[:10]); err == nil {
		t.Error("short content accepted for seeding")
	}
}

func TestSyntheticManifest(t *testing.T) {
	m, err := SyntheticManifest(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 16 || m.FileSize != 1024 {
		t.Errorf("manifest %d pieces, %d bytes", m.NumPieces(), m.FileSize)
	}
	// Synthetic pieces verify against their manifest.
	s := NewStore(m)
	for i := 0; i < 16; i++ {
		if err := s.Put(i, SyntheticPiece(i, 64)); err != nil {
			t.Fatalf("synthetic piece %d rejected: %v", i, err)
		}
	}
	if !s.Complete() {
		t.Error("store incomplete")
	}
	// Distinct pieces have distinct content.
	if bytes.Equal(SyntheticPiece(0, 64), SyntheticPiece(1, 64)) {
		t.Error("synthetic pieces identical")
	}
	if _, err := SyntheticManifest(0, 64); err == nil {
		t.Error("zero pieces accepted")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	m, _ := SyntheticManifest(64, 32)
	s := NewStore(m)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(i, SyntheticPiece(i, 32)); err != nil {
				t.Error(err)
			}
			s.Has(i)
			s.Count()
			s.Bitfield()
		}(i)
	}
	wg.Wait()
	if s.Count() != 64 {
		t.Errorf("Count = %d, want 64", s.Count())
	}
}

func TestStoreBitfieldSnapshot(t *testing.T) {
	m, _ := SyntheticManifest(8, 16)
	s := NewStore(m)
	bf := s.Bitfield()
	if err := s.Put(0, SyntheticPiece(0, 16)); err != nil {
		t.Fatal(err)
	}
	if bf.Has(0) {
		t.Error("snapshot mutated by later Put")
	}
}

func TestStoreAddOnce(t *testing.T) {
	m, _ := SyntheticManifest(4, 64)
	s := NewStore(m)
	data := SyntheticPiece(2, 64)
	const callers = 16
	var wg sync.WaitGroup
	added := make(chan bool, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := s.Add(2, data)
			if err != nil {
				t.Error(err)
			}
			added <- ok
		}()
	}
	wg.Wait()
	close(added)
	winners := 0
	for ok := range added {
		if ok {
			winners++
		}
	}
	if winners != 1 {
		t.Errorf("%d of %d concurrent Adds reported added, want exactly 1", winners, callers)
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d, want 1", s.Count())
	}
}

func TestStoreAddHeldSkipsVerify(t *testing.T) {
	content := testContent(100)
	m, _ := NewManifest(content, 40)
	s := NewStore(m)
	if added, err := s.Add(0, content[:40]); !added || err != nil {
		t.Fatalf("first Add = (%v, %v), want (true, nil)", added, err)
	}
	// A held piece is refused before hashing: garbage is neither an error
	// nor stored.
	garbage := bytes.Repeat([]byte{0xee}, 40)
	if added, err := s.Add(0, garbage); added || err != nil {
		t.Errorf("Add of garbage to a held piece = (%v, %v), want (false, nil)", added, err)
	}
	if got, _ := s.Get(0); !bytes.Equal(got, content[:40]) {
		t.Error("Add of garbage to a held piece changed the stored bytes")
	}
	// A piece not yet held is still verified.
	if err := s.Put(1, garbage); !errors.Is(err, ErrHashMismatch) {
		t.Errorf("Put of garbage to an unheld piece err = %v, want ErrHashMismatch", err)
	}
	if s.Has(1) {
		t.Error("garbage stored for an unheld piece")
	}
}
