// Package checkpoint provides atomic, versioned, config-hash-guarded
// snapshot files for long-running campaigns.
//
// A snapshot is a single JSON envelope carrying a magic marker, a payload
// kind, a format version, a hash of the producing configuration and the
// payload itself. Writes are atomic (write-temp + fsync + rename in the
// destination directory), so a crash or kill mid-save leaves either the
// previous snapshot or the new one, never a torn file. Loads refuse
// envelopes whose kind, version or config hash do not match what the
// caller expects, which is what prevents resuming a campaign against a
// different configuration and silently blending incompatible statistics.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Magic marks every snapshot file this package writes.
const Magic = "xedsim-checkpoint"

// Envelope is the on-disk frame of a snapshot.
type Envelope struct {
	Magic      string          `json:"magic"`
	Kind       string          `json:"kind"`
	Version    int             `json:"version"`
	ConfigHash string          `json:"config_hash"`
	Payload    json.RawMessage `json:"payload"`
}

// Sentinel errors; callers match with errors.Is.
var (
	ErrNotCheckpoint   = errors.New("checkpoint: not a checkpoint file")
	ErrKindMismatch    = errors.New("checkpoint: payload kind mismatch")
	ErrVersionMismatch = errors.New("checkpoint: format version mismatch")
	ErrConfigMismatch  = errors.New("checkpoint: config hash mismatch")
)

// Hash returns the hex SHA-256 of v's canonical JSON encoding. Campaigns
// hash their full configuration (config struct, scheme names, trial count,
// seed, chunk layout) so that a snapshot can only be resumed by the exact
// run shape that produced it.
func Hash(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: hashing config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Marshal encodes a payload into the canonical envelope bytes Save writes.
// The encoding is deterministic (encoding/json with fixed field order), so
// two snapshots of identical state are byte-identical — the property the
// distributed coordinator's bit-identity checks rest on.
func Marshal(kind string, version int, configHash string, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding payload: %w", err)
	}
	env, err := json.Marshal(Envelope{
		Magic:      Magic,
		Kind:       kind,
		Version:    version,
		ConfigHash: configHash,
		Payload:    raw,
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding envelope: %w", err)
	}
	return env, nil
}

// Save atomically AND durably writes payload under the given
// kind/version/configHash to path. It writes the sibling "<path>.tmp" (in
// path's directory, so the rename cannot cross filesystems), fsyncs it,
// renames it over path and then fsyncs the directory: the rename is a
// directory-entry update, so without the directory sync a crash right
// after a "successful" Save could still roll the file back to the previous
// snapshot (or to nothing). Every error path removes the temp file. A
// crash mid-save can leave "<path>.tmp" behind; the next Save of path
// truncates and replaces it, so orphans never pile up and no Save lists
// the directory. Saves of one path must not run concurrently.
func Save(path, kind string, version int, configHash string, payload any) error {
	env, err := Marshal(kind, version, configHash, payload)
	if err != nil {
		return err
	}
	tmpName := path + ".tmp"
	tmp, err := os.OpenFile(tmpName, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Some platforms/filesystems refuse to fsync directories; that is reported
// as-is — the campaign treats a failed save as fatal rather than running
// on with a checkpoint of unknown durability.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing dir %s: %w", dir, err)
	}
	return nil
}

// Load reads the snapshot at path, validates its envelope against the
// expected kind, version and config hash, and unmarshals the payload into
// `into`. A missing file surfaces as os.ErrNotExist; mismatches surface as
// the package's sentinel errors.
func Load(path, kind string, version int, configHash string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var env Envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrNotCheckpoint, path, err)
	}
	if env.Magic != Magic {
		return fmt.Errorf("%w: %s", ErrNotCheckpoint, path)
	}
	if env.Kind != kind {
		return fmt.Errorf("%w: %s holds %q, want %q", ErrKindMismatch, path, env.Kind, kind)
	}
	if env.Version != version {
		return fmt.Errorf("%w: %s is v%d, want v%d", ErrVersionMismatch, path, env.Version, version)
	}
	if env.ConfigHash != configHash {
		return fmt.Errorf("%w: %s was produced by a different configuration", ErrConfigMismatch, path)
	}
	if err := json.Unmarshal(env.Payload, into); err != nil {
		return fmt.Errorf("checkpoint: decoding %s payload: %w", path, err)
	}
	return nil
}
