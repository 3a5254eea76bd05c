package model

import (
	"bytes"
	"fmt"
	"io"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// Checkpoint framing: a magic/format-version header in front of a codec
// tensor blob, so unknown or corrupt checkpoints fail with a clear error.
//
//	offset  size  field
//	0       4     magic "FLNT"
//	4       1     checkpoint format version (currently 1)
//	5       1     kind length n
//	6       n     kind string
//	6+n     —     codec blob (raw float64 — checkpoints stay lossless)
const (
	saveMagic   = "FLNT"
	saveVersion = 1
)

// Frame returns the checkpoint header of a model of the given kind: the
// prefix of every checkpoint, which Save writes before the raw64 blob of
// the params and a coordinator's version buffer (codec.VersionBuf) holds
// in front of it.
func Frame(kind Kind) ([]byte, error) {
	if len(kind) == 0 || len(kind) > 255 {
		return nil, fmt.Errorf("model: save: bad kind %q", kind)
	}
	hdr := append([]byte(saveMagic), saveVersion, byte(len(kind)))
	return append(hdr, kind...), nil
}

// Save writes the model's kind and parameters to w — the model-store
// checkpoint format shared by centralized and FL training (paper §3.1's
// shared model store, §3.4's leader checkpointing). The parameters are
// written as they are encoded (codec.WriteRaw64), never built into a blob
// first, so a checkpoint into a buffer sized for it costs one copy of the
// parameters and no allocation of their size.
func Save(m Model, w io.Writer) error {
	kind := m.Kind()
	hdr, err := Frame(kind)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("model: save %s: %w", kind, err)
	}
	if err := codec.WriteRaw64(w, m.Params()); err != nil {
		return fmt.Errorf("model: save %s: %w", kind, err)
	}
	return nil
}

// Load reconstructs a model from a Save stream.
func Load(r io.Reader) (Model, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	if !bytes.HasPrefix(raw, []byte(saveMagic)) {
		return nil, fmt.Errorf("model: load: unrecognized checkpoint (no %q header)", saveMagic)
	}
	return loadVersioned(raw[len(saveMagic):])
}

func loadVersioned(rest []byte) (Model, error) {
	if len(rest) < 2 {
		return nil, fmt.Errorf("model: load: truncated checkpoint header")
	}
	if v := rest[0]; v != saveVersion {
		return nil, fmt.Errorf("model: load: unsupported checkpoint format version %d (want %d)", v, saveVersion)
	}
	n := int(rest[1])
	if len(rest) < 2+n {
		return nil, fmt.Errorf("model: load: truncated checkpoint header")
	}
	kind := Kind(rest[2 : 2+n])
	params, _, err := codec.Decode(rest[2+n:])
	if err != nil {
		return nil, fmt.Errorf("model: load %s: corrupt checkpoint tensor: %w", kind, err)
	}
	return fromKindParams(kind, params)
}

func fromKindParams(kind Kind, params tensor.Vector) (Model, error) {
	m, err := New(kind, 0)
	if err != nil {
		return nil, err
	}
	if err := m.SetParams(params); err != nil {
		return nil, err
	}
	return m, nil
}
