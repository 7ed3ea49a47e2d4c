package snapfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"
)

// Mode selects how a Reader backs the file's bytes.
type Mode int

const (
	// ModeAuto maps the file when the platform supports it and falls
	// back to a heap read otherwise.
	ModeAuto Mode = iota
	// ModeMmap memory-maps the file: load cost is independent of file
	// size and cold sections are paged in on first touch, so an index
	// no longer needs its full columns resident.
	ModeMmap
	// ModeHeap reads the whole file into an aligned heap buffer.
	ModeHeap
)

// Options tunes Open.
type Options struct {
	Mode Mode
	// SkipVerify disables the per-section CRC pass at open. The
	// framing checks (magic, version, byte order, footer, directory
	// CRC, bounds) always run. Skipping payload verification keeps
	// open time independent of file size — required for true lazy
	// page-in of beyond-RAM files — at the cost of detecting payload
	// corruption only by misbehaviour instead of at the door.
	SkipVerify bool
}

// SectionInfo describes one section for observability.
type SectionInfo struct {
	Kind   uint32 `json:"-"`
	Group  uint32 `json:"group"`
	Name   string `json:"name"`
	Offset int64  `json:"-"`
	Bytes  int64  `json:"bytes"`
}

// Reader gives zero-copy access to a snapshot's sections. The regions
// returned by Section stay valid until Close; structures fixed up out
// of them must not outlive the Reader.
type Reader struct {
	path     string
	version  uint32
	modeName string
	data     []byte
	unmap    func() error
	entries  []dirEntry
	size     int64
}

// Open validates a snapshot's framing and returns a Reader over it.
// Validation order mirrors trust order: magic, version, byte order,
// footer (truncation), directory checksum and bounds, then — unless
// opts.SkipVerify — every section's payload CRC.
func Open(path string, opts Options) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		defer f.Close()
		if size >= 8 {
			var m [8]byte
			if _, err := f.ReadAt(m[:], 0); err == nil && string(m[:]) != Magic {
				return nil, ErrBadMagic
			}
		}
		return nil, ErrTruncated
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, err
	}
	if string(hdr[0:8]) != Magic {
		f.Close()
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != Version {
		f.Close()
		return nil, &VersionError{Got: version, Want: Version}
	}
	bom := nativeBOM()
	if !bytes.Equal(hdr[12:16], bom[:]) {
		f.Close()
		return nil, ErrByteOrder
	}
	if size < headerSize+footerSize {
		f.Close()
		return nil, ErrTruncated
	}

	r := &Reader{path: path, version: version, size: size}
	switch opts.Mode {
	case ModeMmap, ModeAuto:
		data, unmap, merr := mapFile(f, size)
		if merr == nil {
			r.data, r.unmap, r.modeName = data, unmap, "mmap"
			break
		}
		if opts.Mode == ModeMmap {
			f.Close()
			return nil, fmt.Errorf("snapfmt: mmap failed: %w", merr)
		}
		fallthrough
	case ModeHeap:
		data, herr := readAligned(f, size)
		if herr != nil {
			f.Close()
			return nil, herr
		}
		r.data, r.modeName = data, "heap"
	}
	f.Close() // the mapping (or heap copy) outlives the descriptor

	if err := r.parseFraming(); err != nil {
		r.Close()
		return nil, err
	}
	if !opts.SkipVerify {
		if err := r.verifySections(); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// readAligned reads the file into a heap buffer whose start is 64-byte
// aligned, so heap mode gives CastSlice the same alignment guarantees
// mmap mode gets from the page allocator.
func readAligned(f *os.File, size int64) ([]byte, error) {
	buf := make([]byte, size+Align)
	shift := 0
	if rem := int(uintptr(unsafe.Pointer(&buf[0])) % Align); rem != 0 {
		shift = Align - rem
	}
	data := buf[shift : shift+int(size)]
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	return data, nil
}

func (r *Reader) parseFraming() error {
	foot := r.data[r.size-footerSize:]
	if string(foot[32:40]) != TailMagic {
		return ErrTruncated
	}
	if binary.LittleEndian.Uint64(foot[24:32]) != uint64(r.size) {
		return ErrTruncated
	}
	dirOff := binary.LittleEndian.Uint64(foot[0:8])
	dirCount := binary.LittleEndian.Uint64(foot[8:16])
	dirCRC := binary.LittleEndian.Uint32(foot[16:20])
	dirLen := dirCount * dirEntrySize
	if dirOff < headerSize || dirOff+dirLen > uint64(r.size)-footerSize {
		return ErrBadDirectory
	}
	dir := r.data[dirOff : dirOff+dirLen]
	if crc32.Checksum(dir, castagnoli) != dirCRC {
		return ErrBadDirectory
	}
	r.entries = make([]dirEntry, dirCount)
	for i := range r.entries {
		b := dir[i*dirEntrySize:]
		e := dirEntry{
			kind:   binary.LittleEndian.Uint32(b[0:4]),
			group:  binary.LittleEndian.Uint32(b[4:8]),
			off:    binary.LittleEndian.Uint64(b[8:16]),
			length: binary.LittleEndian.Uint64(b[16:24]),
			crc:    binary.LittleEndian.Uint32(b[24:28]),
		}
		if e.off < headerSize || e.off+e.length > dirOff {
			return ErrBadDirectory
		}
		if e.length > 0 && e.off%Align != 0 {
			return ErrBadDirectory
		}
		r.entries[i] = e
	}
	return nil
}

func (r *Reader) verifySections() error {
	for _, e := range r.entries {
		got := crc32.Checksum(r.data[e.off:e.off+e.length], castagnoli)
		if got != e.crc {
			return &CRCError{Kind: e.kind, Group: e.group, Want: e.crc, Got: got}
		}
	}
	return nil
}

// Section returns the payload of the (kind, group) section, zero-copy.
func (r *Reader) Section(kind, group uint32) ([]byte, error) {
	for _, e := range r.entries {
		if e.kind == kind && e.group == group {
			return r.data[e.off : e.off+e.length], nil
		}
	}
	return nil, &NotFoundError{Kind: kind, Group: group}
}

// Has reports whether the (kind, group) section is present.
func (r *Reader) Has(kind, group uint32) bool {
	for _, e := range r.entries {
		if e.kind == kind && e.group == group {
			return true
		}
	}
	return false
}

// Sections lists every section, in file order, for observability.
func (r *Reader) Sections() []SectionInfo {
	out := make([]SectionInfo, len(r.entries))
	for i, e := range r.entries {
		out[i] = SectionInfo{Kind: e.kind, Group: e.group, Name: KindName(e.kind), Offset: int64(e.off), Bytes: int64(e.length)}
	}
	return out
}

// Path returns the file path the Reader was opened from.
func (r *Reader) Path() string { return r.path }

// FormatVersion returns the file's format version.
func (r *Reader) FormatVersion() int { return int(r.version) }

// ModeName reports how the bytes are backed: "mmap" or "heap".
func (r *Reader) ModeName() string { return r.modeName }

// Size returns the file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Close releases the mapping or heap buffer. Every slice handed out
// by Section becomes invalid.
func (r *Reader) Close() error {
	r.entries = nil
	r.data = nil
	if r.unmap != nil {
		u := r.unmap
		r.unmap = nil
		return u()
	}
	return nil
}
