package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Image file layout:
//
//	magic(8) | version(4 LE) | flags(4 LE) | payload | sha256(32)
//
// The payload is the Image struct as JSON: Go's encoder emits struct
// fields in declaration order and sorts map keys, and every set-valued
// field is sorted at capture, so equal machine states produce
// byte-identical images. The trailing SHA-256 covers header + payload;
// Decode verifies it before parsing a single payload byte, so any
// corruption or truncation is rejected before any state is touched.
//
// The checksum is an *integrity* check against accidental corruption,
// not an authenticity seal — anyone can recompute it after mutating a
// decoded image, which is precisely the hostile-OS move the
// tampered-snapshot security row plays. Tamper protection for the
// frames that need it comes from the sealed-page layer (AES-GCM under a
// TPM-rooted key, core.SnapshotSealer), which a re-checksummed image
// cannot forge.

const (
	// imageMagic is the 8-byte file signature. The \r\n catches images
	// mangled by text-mode transfers, like PNG's.
	imageMagic = "VGSNAP\r\n"
	// imageVersion is the current image format version. Bump on any
	// change to the header, section layout, or payload encoding.
	// v2: KernelSnap.NextPort folded into a NetSnap section (port range,
	// receive-window default, net counters, timer-id cursor); NICSnap
	// gained per-port drop counters.
	imageVersion = 2
	// headerSize is the fixed header length: magic | version | flags.
	headerSize = 16
	// flagRecorded marks an image carrying a record-replay trailer.
	flagRecorded = 1 << 0

	checksumSize = sha256.Size
)

// ErrCorruptImage reports a checksum mismatch or truncation.
var ErrCorruptImage = errors.New("snapshot: image corrupt (checksum mismatch or truncated)")

// Encode serializes an image into the versioned, checksummed file
// format.
func Encode(img *Image) ([]byte, error) {
	payload, err := json.Marshal(img)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	var flags uint32
	if img.Record != nil {
		flags |= flagRecorded
	}
	out := make([]byte, headerSize, headerSize+len(payload)+checksumSize)
	copy(out, imageMagic)
	binary.LittleEndian.PutUint32(out[8:12], imageVersion)
	binary.LittleEndian.PutUint32(out[12:16], flags)
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

// Decode parses an encoded image. The checksum is verified over the
// whole prefix before anything else — a flipped bit anywhere in the
// file, or a truncated file, is rejected here, never half-applied.
func Decode(data []byte) (*Image, error) {
	if len(data) < headerSize+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptImage, len(data))
	}
	body, sum := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	if sha256.Sum256(body) != [checksumSize]byte(sum) {
		return nil, ErrCorruptImage
	}
	flags, err := parseHeader(body)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	img := &Image{}
	if err := json.Unmarshal(body[headerSize:], img); err != nil {
		return nil, fmt.Errorf("snapshot: payload: %w", err)
	}
	if recorded := flags&flagRecorded != 0; recorded != (img.Record != nil) {
		return nil, fmt.Errorf("snapshot: header recorded flag %v but trailer presence %v", recorded, img.Record != nil)
	}
	return img, nil
}

// parseHeader validates the fixed header at the front of b, which must
// hold at least headerSize bytes — the magic must match and the version
// must be exactly imageVersion (there are no compatible older versions)
// — and returns its flags word.
func parseHeader(b []byte) (uint32, error) {
	if string(b[:8]) != imageMagic {
		return 0, fmt.Errorf("bad magic %q: not a snapshot image", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != imageVersion {
		return 0, fmt.Errorf("image version %d, this build reads version %d", v, imageVersion)
	}
	return binary.LittleEndian.Uint32(b[12:16]), nil
}

// Load reads and decodes an image file.
func Load(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read image: %w", err)
	}
	return Decode(data)
}
