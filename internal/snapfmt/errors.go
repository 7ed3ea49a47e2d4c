package snapfmt

import (
	"errors"
	"fmt"
)

// The sentinel load errors. Each failure mode gets its own identity so
// callers (and operators reading logs) can tell a wrong file from a
// damaged one from a future one.
var (
	// ErrBadMagic: the file does not start with the snapshot magic —
	// it is not a searchwebdb snapshot at all.
	ErrBadMagic = errors.New("snapfmt: bad magic: not a searchwebdb snapshot file")

	// ErrTruncated: the file is shorter than its framing claims — the
	// footer is missing, damaged, or describes a larger file. Typical
	// cause: an interrupted copy or a partially written snapshot.
	ErrTruncated = errors.New("snapfmt: file truncated: footer missing or file shorter than recorded size")

	// ErrByteOrder: the file was written on an architecture with a
	// different byte order; its native-layout payloads cannot be
	// mapped here.
	ErrByteOrder = errors.New("snapfmt: byte-order mismatch: snapshot written on an incompatible architecture")

	// ErrBadDirectory: the section directory itself fails its
	// checksum or addresses bytes outside the file.
	ErrBadDirectory = errors.New("snapfmt: section directory corrupt")
)

// VersionError reports a format-version mismatch: the file is a
// snapshot, but from a different format generation.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapfmt: unsupported format version %d (this build reads version %d); rebuild the snapshot with a matching buildindex", e.Got, e.Want)
}

// CRCError reports a payload checksum mismatch in one named section:
// the file's framing is intact but the section's bytes are corrupt.
type CRCError struct {
	Kind, Group uint32
	Want, Got   uint32
}

func (e *CRCError) Error() string {
	return fmt.Sprintf("snapfmt: checksum mismatch in section %q (kind=%d group=%d): want %08x got %08x; snapshot is corrupt, rebuild it",
		KindName(e.Kind), e.Kind, e.Group, e.Want, e.Got)
}

// NotFoundError reports a missing section: the file is valid but does
// not carry the requested payload (e.g. a component's sections are
// absent from the requested group).
type NotFoundError struct {
	Kind, Group uint32
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("snapfmt: section %q (kind=%d group=%d) not present in snapshot",
		KindName(e.Kind), e.Kind, e.Group)
}
