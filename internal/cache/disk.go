package cache

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Disk is the optional persistent tier for every cached result kind: flow
// artifacts, ground states and gate validations. Entries are plain files
// addressed by key, fanned out over 256 two-hex-digit subdirectories.
// Durability discipline:
//
//   - Put writes a temp file, fsyncs it, renames it into place, and
//     fsyncs the parent directory — a crash at any point leaves either
//     the old entry or the new one, never a torn file behind the rename.
//   - Every entry is framed with the journal package's checksummed record
//     header (magic + length + CRC-32C), and Get verifies it: a corrupt or
//     truncated entry is quarantined to <entry>.corrupt and reported as a
//     clean miss (cache_disk_corrupt_total counts them), so storage rot
//     costs one re-solve instead of serving garbage.
//
// Disk never evicts — operators bound it by pointing -cache-dir at a
// managed directory.
type Disk struct {
	dir string
	// tr receives the corruption counter (nil-safe; see Instrument).
	tr  *obs.Tracer
	log *slog.Logger
}

// NewDisk opens (creating if needed) a disk cache rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk: %w", err)
	}
	return &Disk{dir: dir, log: obs.Discard}, nil
}

// Instrument attaches the tracer and logger that receive corruption
// counts and quarantine logs (a nil logger disables them). Call before
// first use.
func (d *Disk) Instrument(tr *obs.Tracer, log *slog.Logger) {
	d.tr = tr
	d.log = cmp.Or(log, obs.Discard)
}

// path maps a key to its file. The key's domain tag becomes part of the
// filename; the hex digest provides the fan-out prefix.
func (d *Disk) path(key Key) string {
	name := strings.ReplaceAll(string(key), ":", "_")
	hexPart := name
	if i := strings.LastIndexByte(name, '_'); i >= 0 && len(name) > i+2 {
		hexPart = name[i+1:]
	}
	return filepath.Join(d.dir, hexPart[:2], name+".bin")
}

// Get reads and verifies the entry for key. A clean miss is
// (nil, false, nil); an I/O failure is reported as an error so the
// resilient layer above can retry it and trip its breaker. An entry that
// fails verification — torn by a crash predating the fsync discipline,
// truncated by a full disk, or bit-rotted — is quarantined and reported
// as a clean miss: corruption is a cache-content problem, not a
// cache-device problem, so it must cost a re-solve, not a breaker trip.
func (d *Disk) Get(_ context.Context, key Key) ([]byte, bool, error) {
	if err := faults.Fail("cache.disk.read"); err != nil {
		return nil, false, err
	}
	p := d.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cache: disk get: %w", err)
	}
	payload, err := journal.Unseal(b)
	if err != nil {
		d.quarantine(p, err)
		return nil, false, nil
	}
	return payload, true, nil
}

// quarantine moves a damaged entry aside as <entry>.corrupt (best effort;
// a rename failure falls back to removal) so the slot reads as a miss and
// the evidence survives for postmortems.
func (d *Disk) quarantine(p string, cause error) {
	d.tr.Counter("cache/disk/corrupt_total").Inc()
	if err := os.Rename(p, p+".corrupt"); err != nil {
		os.Remove(p)
	}
	d.log.Warn("cache_disk_entry_quarantined",
		"entry", filepath.Base(p),
		"error", cause)
}

// Put writes the entry durably: checksummed framing, temp file, fsync,
// rename, directory fsync. Errors are returned for the caller to log; a
// failed Put never corrupts the store, and a crash mid-Put never leaves a
// zero-length or torn entry visible behind the rename.
func (d *Disk) Put(_ context.Context, key Key, val []byte) error {
	if err := faults.Fail("cache.disk.write"); err != nil {
		return err
	}
	p := d.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: disk put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: disk put: %w", err)
	}
	if _, err := tmp.Write(journal.Seal(val)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: disk put: %w", err)
	}
	// fsync BEFORE the rename: rename is atomic in the namespace but says
	// nothing about data blocks — without this, a crash shortly after Put
	// can leave a correctly-named file with zero or partial content.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: disk put: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: disk put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: disk put: %w", err)
	}
	// fsync the parent directory so the rename itself is durable.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("cache: disk put: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making entry renames durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
