package snapshot

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
)

// Container format: an 8-byte magic naming the snapshot kind, a 4-byte
// little-endian format version, the payload, and a SHA-256 digest of
// everything before it. The digest makes bit rot and torn writes loud:
// Open rejects a damaged file with an error instead of handing a
// half-decoded state to the simulator.

const (
	magicLen   = 8
	versionLen = 4
	sumLen     = sha256.Size
)

// Seal wraps payload in a container: magic (exactly 8 bytes) + version +
// payload + SHA-256 trailer. It panics if magic is not 8 bytes long —
// container kinds are compile-time constants.
func Seal(magic string, version uint32, payload []byte) []byte {
	if len(magic) != magicLen {
		panic(fmt.Sprintf("snapshot: magic %q must be exactly %d bytes", magic, magicLen))
	}
	out := make([]byte, 0, magicLen+versionLen+len(payload)+sumLen)
	out = append(out, magic...)
	out = append(out, byte(version), byte(version>>8), byte(version>>16), byte(version>>24))
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Open validates a sealed container: the magic and version must match and
// the SHA-256 trailer must verify. It returns the payload. All failure modes
// (wrong kind, future version, truncation, corruption) are errors.
func Open(data []byte, magic string, version uint32) ([]byte, error) {
	if len(magic) != magicLen {
		panic(fmt.Sprintf("snapshot: magic %q must be exactly %d bytes", magic, magicLen))
	}
	if len(data) < magicLen+versionLen+sumLen {
		return nil, fmt.Errorf("snapshot: container too short (%d bytes)", len(data))
	}
	if string(data[:magicLen]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (want %q)", data[:magicLen], magic)
	}
	body, trailer := data[:len(data)-sumLen], data[len(data)-sumLen:]
	sum := sha256.Sum256(body)
	if sum != [sumLen]byte(trailer) {
		return nil, fmt.Errorf("snapshot: checksum mismatch: file is corrupt or was not written atomically")
	}
	v := uint32(data[magicLen]) | uint32(data[magicLen+1])<<8 | uint32(data[magicLen+2])<<16 | uint32(data[magicLen+3])<<24
	if v != version {
		return nil, fmt.Errorf("snapshot: format version %d not supported (this build reads version %d); regenerate the file from cycle 0 with the same flags", v, version)
	}
	return body[magicLen+versionLen:], nil
}

// WriteFileAtomic writes data to path via a temporary file in the same
// directory followed by a rename, so a crash mid-write leaves either the old
// checkpoint or the new one — never a torn file.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: write %s: %w", path, werr)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: commit %s: %w", path, err)
	}
	return nil
}
