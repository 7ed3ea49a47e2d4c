// Package faultinject is the deterministic fault-injection harness of
// the write path: named crash points where the process kills itself
// (CrashSet, serverd -crash-point) and armed filesystem errors that make
// one call fail and return (DiskSet, serverd -disk-fault). The WAL,
// epoch swap and checkpoint code call Hit/Check at the instants the
// recovery contract has to survive; a nil set is inert, so production
// pays one nil check per site.
//
// Determinism is the design constraint: a crash or disk-fault test that
// cannot replay its failure cannot assert anything, so every arming is
// counted ("fire on the (after+1)-th hit") rather than random.
//
// The harness is pure policy: it never imports the packages it breaks.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Crash points name the instants in the WAL append and epoch-swap
// sequences where a process death is interesting: between any two of
// them the on-disk state is in a distinct intermediate shape, and the
// recovery contract ("no acknowledged write lost, unacknowledged tail
// repaired") must hold at every one. The kill-point matrix test arms
// each point in turn, drives an ingest until the point fires, and then
// recovers from whatever the filesystem holds.
//
// The set is small and deliberately exhaustive over the write path:
//
//	wal.append.before_write   nothing of the record on disk yet
//	wal.append.partial_write  header + a prefix of the payload (torn tail)
//	wal.append.after_write    record fully written, not yet fsynced
//	wal.append.after_sync     record durable, ack not yet returned
//	wal.rotate.after_create   new segment file exists, still empty
//	swap.before_merge         delta full, merge not started
//	swap.after_merge          merged epoch built, not yet installed
//	swap.after_install        new epoch visible, WAL untouched
//
// The checkpoint path adds its own sequence. Between any two of these
// the directory holds a distinct mix of old manifest, new snapshot, and
// partially-truncated log, and recovery must pick the right authority
// (the newest *committed* manifest) at every one:
//
//	ckpt.after_rotate           log rotated; checkpoint not yet on disk
//	ckpt.snapshot_partial       checkpoint temp file torn mid-write
//	ckpt.snapshot_tmp           checkpoint temp file complete + fsynced
//	ckpt.after_snapshot_rename  snapshot installed; manifest still old
//	ckpt.manifest_tmp           new manifest temp written, not renamed
//	ckpt.after_manifest         new manifest committed; log untruncated
//	ckpt.truncate_partial       some covered segments removed, not all
//	ckpt.after_truncate         checkpoint fully installed and trimmed
const (
	CrashWALBeforeWrite   = "wal.append.before_write"
	CrashWALPartialWrite  = "wal.append.partial_write"
	CrashWALAfterWrite    = "wal.append.after_write"
	CrashWALAfterSync     = "wal.append.after_sync"
	CrashWALRotate        = "wal.rotate.after_create"
	CrashSwapBeforeMerge  = "swap.before_merge"
	CrashSwapAfterMerge   = "swap.after_merge"
	CrashSwapAfterInstall = "swap.after_install"

	CrashCkptAfterRotate    = "ckpt.after_rotate"
	CrashCkptSnapshotTorn   = "ckpt.snapshot_partial"
	CrashCkptSnapshotTmp    = "ckpt.snapshot_tmp"
	CrashCkptSnapshotRename = "ckpt.after_snapshot_rename"
	CrashCkptManifestTmp    = "ckpt.manifest_tmp"
	CrashCkptAfterManifest  = "ckpt.after_manifest"
	CrashCkptTruncatePart   = "ckpt.truncate_partial"
	CrashCkptAfterTruncate  = "ckpt.after_truncate"
)

// CrashPoints lists every named crash point in matrix order.
func CrashPoints() []string {
	return []string{
		CrashWALBeforeWrite,
		CrashWALPartialWrite,
		CrashWALAfterWrite,
		CrashWALAfterSync,
		CrashWALRotate,
		CrashSwapBeforeMerge,
		CrashSwapAfterMerge,
		CrashSwapAfterInstall,
		CrashCkptAfterRotate,
		CrashCkptSnapshotTorn,
		CrashCkptSnapshotTmp,
		CrashCkptSnapshotRename,
		CrashCkptManifestTmp,
		CrashCkptAfterManifest,
		CrashCkptTruncatePart,
		CrashCkptAfterTruncate,
	}
}

// CheckpointCrashPoints lists only the ckpt.* points, in the order the
// checkpoint path hits them — the matrix the checkpoint kill test
// iterates.
func CheckpointCrashPoints() []string {
	return []string{
		CrashCkptAfterRotate,
		CrashCkptSnapshotTorn,
		CrashCkptSnapshotTmp,
		CrashCkptSnapshotRename,
		CrashCkptManifestTmp,
		CrashCkptAfterManifest,
		CrashCkptTruncatePart,
		CrashCkptAfterTruncate,
	}
}

// CrashValue is the panic payload thrown when an armed crash point
// fires with the default handler. In-process kill-point tests recover
// it at the ingest boundary and treat everything past the point as if
// the process had died; serverd -crash-point installs a handler that
// SIGKILLs the real process instead.
type CrashValue struct{ Point string }

func (c CrashValue) String() string { return "faultinject: crash point " + c.Point }

// CrashSet arms a subset of the named crash points. The zero value (and
// nil) is fully disarmed and costs one predictable branch per check, so
// production code paths keep it inline.
type CrashSet struct {
	mu    sync.Mutex
	armed map[string]*crashArm
	fired atomic.Int64
	// Handler is invoked when an armed point fires. If nil, the point
	// panics with CrashValue — the in-process simulation of a kill.
	Handler func(point string)
}

type crashArm struct {
	after int64 // fire on the (after+1)-th hit
	hits  atomic.Int64
}

// NewCrashSet returns an empty, disarmed set.
func NewCrashSet() *CrashSet { return &CrashSet{} }

// Arm schedules point to fire on its (after+1)-th hit; after=0 fires on
// the first hit. Arming an unknown point name is an error so test
// matrices and -crash-point flags fail loudly instead of never firing.
func (cs *CrashSet) Arm(point string, after int) error {
	if !validCrashPoint(point) {
		return fmt.Errorf("faultinject: unknown crash point %q (valid: %v)", point, CrashPoints())
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.armed == nil {
		cs.armed = make(map[string]*crashArm)
	}
	cs.armed[point] = &crashArm{after: int64(after)}
	return nil
}

// Disarm removes a point; pending hit counts are dropped.
func (cs *CrashSet) Disarm(point string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.armed, point)
}

// Fired reports how many times any point in the set has fired.
func (cs *CrashSet) Fired() int64 {
	if cs == nil {
		return 0
	}
	return cs.fired.Load()
}

// Hit checks an armed point. On the fatal hit it invokes the handler
// (or panics with CrashValue). A nil or disarmed set is a no-op.
func (cs *CrashSet) Hit(point string) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	arm := cs.armed[point]
	cs.mu.Unlock()
	if arm == nil {
		return
	}
	if arm.hits.Add(1) <= arm.after {
		return
	}
	cs.fired.Add(1)
	if h := cs.Handler; h != nil {
		h(point)
		return
	}
	panic(CrashValue{Point: point})
}

// Armed reports whether the point is currently armed.
func (cs *CrashSet) Armed(point string) bool {
	if cs == nil {
		return false
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	_, ok := cs.armed[point]
	return ok
}

func validCrashPoint(point string) bool {
	i := sort.SearchStrings(sortedCrashPoints, point)
	return i < len(sortedCrashPoints) && sortedCrashPoints[i] == point
}

var sortedCrashPoints = func() []string {
	pts := CrashPoints()
	s := make([]string, len(pts))
	copy(s, pts)
	sort.Strings(s)
	return s
}()
