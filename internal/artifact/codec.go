package artifact

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Codec is the one format of every artifact this repo writes and reads
// back: an 8-byte versioned magic, then a gob payload, with a structural
// check run before encoding and after decoding. A truncated, foreign or
// inconsistent stream fails with a wrapped error instead of a panic deep
// in a consumer. A flipped bit inside the gob payload that still decodes
// to structurally valid values is beyond what the check can see.
//
// Each format declares one Codec value; the store stays a plain byte
// container (Put takes a codec's Write, Load a codec's Read).
type Codec[T any] struct {
	// Magic identifies the format; its trailing digit is the version.
	Magic string
	// Name prefixes the codec's errors ("train: checkpoint").
	Name string
	// BadMagic is wrapped when a stream carries another header.
	BadMagic error
	// Check validates a value on both ends.
	Check func(*T) error
}

// Write checks v, then writes the magic and v's gob encoding to w.
func (c Codec[T]) Write(w io.Writer, v *T) error {
	if err := c.Check(v); err != nil {
		return err
	}
	if _, err := io.WriteString(w, c.Magic); err != nil {
		return fmt.Errorf("%s: write header: %w", c.Name, err)
	}
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("%s: encode: %w", c.Name, err)
	}
	return nil
}

// Read reads the magic, decodes one value and checks it. A short header
// returns a wrapped io.ErrUnexpectedEOF and a foreign one a wrapped
// BadMagic.
func (c Codec[T]) Read(r io.Reader) (*T, error) {
	if err := c.header(r); err != nil {
		return nil, err
	}
	v := new(T)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", c.Name, err)
	}
	if err := c.Check(v); err != nil {
		return nil, err
	}
	return v, nil
}

// Is reports whether r starts with the codec's magic. It consumes the
// header; a stream shorter than the magic is not of this format.
func (c Codec[T]) Is(r io.Reader) bool { return c.header(r) == nil }

// header consumes and checks the magic.
func (c Codec[T]) header(r io.Reader) error {
	hdr := make([]byte, len(c.Magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%s: truncated header: %w", c.Name, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("%s: read header: %w", c.Name, err)
	}
	if string(hdr) != c.Magic {
		return fmt.Errorf("%w: header %q", c.BadMagic, hdr)
	}
	return nil
}

// Load opens the entry kind/key, decodes it with read and closes it. A
// missing entry returns Get's error, which wraps fs.ErrNotExist; any other
// error means the entry is present but unusable. Only an entry that read
// accepts counts as a cache hit; an absent or unusable one is a miss.
func Load[T any](s *Store, kind, key string, read func(io.Reader) (*T, error)) (*T, error) {
	rc, err := s.Get(kind, key)
	if err != nil {
		s.count(false)
		return nil, err
	}
	defer rc.Close()
	v, err := read(rc)
	s.count(err == nil)
	return v, err
}
