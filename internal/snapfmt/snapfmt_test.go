package snapfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// writeTestSnapshot creates a small container with several sections:
// two groups of the same kind, a large payload, and an empty one.
func writeTestSnapshot(t *testing.T) (string, map[[2]uint32][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.swdb")
	payloads := map[[2]uint32][]byte{
		{SecMeta, 0}:      []byte(`{"layout":"test"}`),
		{SecDictArena, 0}: bytes.Repeat([]byte("abcdefg"), 300),
		{SecDictArena, 1}: []byte("second group, same kind"),
		{SecColsSPO, 2}:   nil, // empty sections are legal
	}
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic order, and exercise multi-part Add on one of them.
	if err := w.Add(SecMeta, 0, payloads[[2]uint32{SecMeta, 0}]); err != nil {
		t.Fatal(err)
	}
	big := payloads[[2]uint32{SecDictArena, 0}]
	if err := w.Add(SecDictArena, 0, big[:1000], big[1000:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(SecDictArena, 1, payloads[[2]uint32{SecDictArena, 1}]); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(SecColsSPO, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, payloads
}

func TestRoundTrip(t *testing.T) {
	path, payloads := writeTestSnapshot(t)
	for _, mode := range []Mode{ModeAuto, ModeMmap, ModeHeap} {
		r, err := Open(path, Options{Mode: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if r.FormatVersion() != Version {
			t.Errorf("FormatVersion = %d, want %d", r.FormatVersion(), Version)
		}
		if r.ModeName() != "mmap" && r.ModeName() != "heap" {
			t.Errorf("ModeName = %q", r.ModeName())
		}
		if mode == ModeHeap && r.ModeName() != "heap" {
			t.Errorf("ModeHeap backed by %q", r.ModeName())
		}
		for key, want := range payloads {
			if !r.Has(key[0], key[1]) {
				t.Fatalf("missing section kind=%d group=%d", key[0], key[1])
			}
			got, err := r.Section(key[0], key[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("section kind=%d group=%d: payload mismatch", key[0], key[1])
			}
			if len(got) > 0 {
				if rem := uintptr(unsafe.Pointer(&got[0])) % Align; rem != 0 {
					t.Errorf("section kind=%d group=%d: start misaligned by %d", key[0], key[1], rem)
				}
			}
		}
		if r.Has(SecKwixTree, 0) {
			t.Error("Has reports a section that was never written")
		}
		_, err = r.Section(SecKwixTree, 9)
		var nf *NotFoundError
		if !errors.As(err, &nf) || nf.Kind != SecKwixTree || nf.Group != 9 {
			t.Errorf("missing section: got %v, want NotFoundError{kind=%d group=9}", err, SecKwixTree)
		}
		secs := r.Sections()
		if len(secs) != len(payloads) {
			t.Fatalf("Sections() = %d entries, want %d", len(secs), len(payloads))
		}
		for _, s := range secs {
			if s.Name != KindName(s.Kind) {
				t.Errorf("section name %q != KindName %q", s.Name, KindName(s.Kind))
			}
			if s.Bytes > 0 && s.Offset%Align != 0 {
				t.Errorf("section %s offset %d not %d-aligned", s.Name, s.Offset, Align)
			}
			if want := payloads[[2]uint32{s.Kind, s.Group}]; s.Bytes != int64(len(want)) {
				t.Errorf("section %s/%d: Bytes = %d, want %d", s.Name, s.Group, s.Bytes, len(want))
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriterRejectsDuplicateSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.swdb")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(SecMeta, 0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(SecMeta, 0, []byte("b")); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close succeeded after a failed Add; errors must be sticky")
	}
}

// corruptCopy copies the pristine file and applies mutate to its bytes.
func corruptCopy(t *testing.T, src string, mutate func(b []byte) []byte) string {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	b = mutate(b)
	dst := filepath.Join(t.TempDir(), "corrupt.swdb")
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestDistinctCorruptionErrors checks that each damage class fails with
// its own actionable error identity, not a generic one.
func TestDistinctCorruptionErrors(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	dirOff := readFooterDirOff(t, path)

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		check  func(t *testing.T, err error)
	}{
		{
			name:   "bad magic",
			mutate: func(b []byte) []byte { b[0] ^= 0xFF; return b },
			check:  wantSentinel(ErrBadMagic),
		},
		{
			name:   "not a snapshot at all",
			mutate: func(b []byte) []byte { return []byte("definitely not a snapshot file") },
			check:  wantSentinel(ErrBadMagic),
		},
		{
			name:   "truncated by one byte",
			mutate: func(b []byte) []byte { return b[:len(b)-1] },
			check:  wantSentinel(ErrTruncated),
		},
		{
			name:   "truncated mid-file",
			mutate: func(b []byte) []byte { return b[:len(b)/2] },
			check:  wantSentinel(ErrTruncated),
		},
		{
			name:   "header-only stub",
			mutate: func(b []byte) []byte { return b[:headerSize] },
			check:  wantSentinel(ErrTruncated),
		},
		{
			name: "future format version",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[8:12], Version+7)
				return b
			},
			check: func(t *testing.T, err error) {
				var ve *VersionError
				if !errors.As(err, &ve) {
					t.Fatalf("got %v, want VersionError", err)
				}
				if ve.Got != Version+7 || ve.Want != Version {
					t.Errorf("VersionError = %+v", ve)
				}
			},
		},
		{
			name:   "byte-order mismatch",
			mutate: func(b []byte) []byte { b[12] ^= 0xFF; b[15] ^= 0xFF; return b },
			check:  wantSentinel(ErrByteOrder),
		},
		{
			name:   "directory bytes corrupted",
			mutate: func(b []byte) []byte { b[dirOff] ^= 0x01; return b },
			check:  wantSentinel(ErrBadDirectory),
		},
		{
			name: "directory offset out of bounds",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[len(b)-footerSize:], 0)
				return b
			},
			check: wantSentinel(ErrBadDirectory),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := corruptCopy(t, path, tc.mutate)
			r, err := Open(bad, Options{})
			if err == nil {
				r.Close()
				t.Fatal("Open accepted a corrupt file")
			}
			tc.check(t, err)
		})
	}
}

func wantSentinel(want error) func(t *testing.T, err error) {
	return func(t *testing.T, err error) {
		if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}
}

func readFooterDirOff(t *testing.T, path string) uint64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b[len(b)-footerSize:])
}

// TestBitFlipEverySection flips one payload byte in every non-empty
// section, one file per section, and asserts the load fails with a
// CRCError naming exactly the damaged section.
func TestBitFlipEverySection(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	secs := r.Sections()
	r.Close()

	for _, s := range secs {
		if s.Bytes == 0 {
			continue
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			bad := corruptCopy(t, path, func(b []byte) []byte {
				b[s.Offset+s.Bytes/2] ^= 0x40
				return b
			})
			if r, err := Open(bad, Options{}); err == nil {
				r.Close()
				t.Fatal("Open accepted a payload-corrupted file")
			} else {
				var ce *CRCError
				if !errors.As(err, &ce) {
					t.Fatalf("got %v, want CRCError", err)
				}
				if ce.Kind != s.Kind || ce.Group != s.Group {
					t.Errorf("CRCError names section kind=%d group=%d, corrupted kind=%d group=%d",
						ce.Kind, ce.Group, s.Kind, s.Group)
				}
				if !bytes.Contains([]byte(err.Error()), []byte(s.Name)) {
					t.Errorf("error %q does not name section %q", err, s.Name)
				}
			}

			// SkipVerify trusts the framing and defers payload integrity:
			// the same damaged file opens, for lazy beyond-RAM paging.
			r, err := Open(bad, Options{SkipVerify: true})
			if err != nil {
				t.Fatalf("SkipVerify open: %v", err)
			}
			r.Close()
		})
	}
}

func TestCastSlice(t *testing.T) {
	vals := []uint64{1, 2, 3, 1 << 40}
	b := AsBytes(vals)
	if len(b) != 32 {
		t.Fatalf("AsBytes len = %d", len(b))
	}
	back, err := CastSlice[uint64](b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if back[i] != v {
			t.Fatalf("round trip [%d] = %d, want %d", i, back[i], v)
		}
	}
	if _, err := CastSlice[uint64](b[:12]); err == nil {
		t.Error("CastSlice accepted a ragged payload")
	}
	if _, err := CastSlice[uint64](b[1:9]); err == nil {
		t.Error("CastSlice accepted a misaligned payload")
	}
	if got, err := CastSlice[uint64](nil); err != nil || got != nil {
		t.Errorf("CastSlice(nil) = %v, %v", got, err)
	}
	if String(b[:0]) != "" {
		t.Error("String of empty payload")
	}
	if String([]byte("hello")) != "hello" {
		t.Error("String mismatch")
	}
}
