package wire

// Replication frames: a replica site pulls the primary forward with a
// TypeSync request carrying its last-seen epoch; the TypeSyncResp
// answer is a storage.Delta — the modified version keys with their
// stamps plus, per table, schema, indexes and the full current rows of
// every modified key. Applying the delta is delete-then-insert per
// key, so one frame pair moves a replica from any epoch to the
// primary's current one.

import (
	"fmt"
	"io"

	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// EncodeSyncFrom serializes a replica's delta pull: the epoch it last
// synced to (0 for a full bootstrap) and, when not empty, the pulling
// site, so the primary can apply that site's subscription filter. The
// site travels as a trailing length-prefixed string, which a decoder
// that predates subscriptions ignores: the frame degrades to a full
// sync there.
func EncodeSyncFrom(since uint64, site string) []byte {
	b := append(getFrame(), TypeSync)
	b = appendUint64(b, since)
	if site != "" {
		b = appendString(b, site)
	}
	return b
}

// DecodeSyncSite parses a sync request frame body including the
// optional site identity ("" when the frame carries none — an
// anonymous pull is always served the full delta).
func DecodeSyncSite(b []byte) (uint64, string, error) {
	if len(b) < 1 || b[0] != TypeSync {
		return 0, "", fmt.Errorf("wire: not a sync frame")
	}
	since, rest, err := readUint64(b[1:])
	if err != nil {
		return 0, "", err
	}
	if len(rest) == 0 {
		return since, "", nil
	}
	site, _, err := readString(rest)
	if err != nil {
		return 0, "", err
	}
	return since, site, nil
}

// column flag bits in the schema encoding.
const (
	colNotNull    = 1 << 0
	colPrimaryKey = 1 << 1
	colHasDefault = 1 << 2
)

// EncodeSyncResp serializes a replication delta.
func EncodeSyncResp(d *storage.Delta) []byte {
	b := append(getFrame(), TypeSyncResp)
	b = appendUint64(b, d.Since)
	b = appendUint64(b, d.Epoch)
	b = appendUint32(b, uint32(len(d.Stamps)))
	for k, e := range d.Stamps {
		b = appendUint64(b, uint64(k))
		b = appendUint64(b, e)
	}
	b = appendUint32(b, uint32(len(d.Tables)))
	for _, td := range d.Tables {
		b = appendString(b, td.Schema.Name)
		b = appendString(b, td.VersionKey)
		b = appendUint32(b, uint32(len(td.Schema.Cols)))
		for _, c := range td.Schema.Cols {
			b = appendString(b, c.Name)
			b = append(b, byte(c.Type.Kind))
			b = appendUint32(b, uint32(c.Type.Size))
			var flags byte
			if c.NotNull {
				flags |= colNotNull
			}
			if c.PrimaryKey {
				flags |= colPrimaryKey
			}
			if c.HasDefault {
				flags |= colHasDefault
			}
			b = append(b, flags)
			if c.HasDefault {
				b = AppendValue(b, c.Default)
			}
		}
		b = appendUint32(b, uint32(len(td.Indexes)))
		for _, ix := range td.Indexes {
			b = appendString(b, ix.Name)
			b = appendString(b, ix.Column)
			if ix.Unique {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		b = appendUint32(b, uint32(len(td.Rows)))
		for _, row := range td.Rows {
			for _, v := range row {
				b = AppendValue(b, v)
			}
		}
	}
	if d.Partial {
		// Partial trailer: the subscription closure the replica now
		// holds plus the skipped-row count. Old decoders consume exactly
		// through the tables and ignore trailing bytes, so the trailer is
		// backward compatible.
		b = appendUint32(b, uint32(len(d.Holds)))
		for _, k := range d.Holds {
			b = appendUint64(b, uint64(k))
		}
		b = appendUint32(b, uint32(d.Skipped))
	}
	return b
}

// DecodeSyncResp parses a replication delta frame body. Counts are
// validated against the remaining frame size before any allocation, so
// a corrupt frame cannot become an allocation bomb.
func DecodeSyncResp(b []byte) (*storage.Delta, error) {
	if len(b) < 1 || b[0] != TypeSyncResp {
		return nil, fmt.Errorf("wire: not a sync response frame")
	}
	b = b[1:]
	d := &storage.Delta{Stamps: map[int64]uint64{}}
	var err error
	if d.Since, b, err = readUint64(b); err != nil {
		return nil, err
	}
	if d.Epoch, b, err = readUint64(b); err != nil {
		return nil, err
	}
	nstamps, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	if nstamps > uint32(len(b))/16 {
		return nil, io.ErrUnexpectedEOF
	}
	for i := uint32(0); i < nstamps; i++ {
		var k, e uint64
		k, b, _ = readUint64(b)
		e, b, _ = readUint64(b)
		d.Stamps[int64(k)] = e
	}
	ntables, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	// Every table costs at least its two length-prefixed strings and
	// three counts (16 bytes).
	if ntables > uint32(len(b))/16 {
		return nil, io.ErrUnexpectedEOF
	}
	for i := uint32(0); i < ntables; i++ {
		var td storage.TableDelta
		td.Schema = &storage.Schema{}
		if td.Schema.Name, b, err = readString(b); err != nil {
			return nil, err
		}
		if td.VersionKey, b, err = readString(b); err != nil {
			return nil, err
		}
		ncols, rest, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		b = rest
		// A column is at least its name prefix, kind, size and flags.
		if ncols > uint32(len(b))/10 {
			return nil, io.ErrUnexpectedEOF
		}
		for j := uint32(0); j < ncols; j++ {
			var c storage.Column
			if c.Name, b, err = readString(b); err != nil {
				return nil, err
			}
			if len(b) < 6 {
				return nil, io.ErrUnexpectedEOF
			}
			c.Type.Kind = types.Kind(b[0])
			b = b[1:]
			var size uint32
			if size, b, err = readUint32(b); err != nil {
				return nil, err
			}
			c.Type.Size = int(size)
			flags := b[0]
			b = b[1:]
			c.NotNull = flags&colNotNull != 0
			c.PrimaryKey = flags&colPrimaryKey != 0
			c.HasDefault = flags&colHasDefault != 0
			if c.HasDefault {
				if c.Default, b, err = ReadValue(b); err != nil {
					return nil, err
				}
			}
			td.Schema.Cols = append(td.Schema.Cols, c)
		}
		nidx, rest2, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		b = rest2
		if nidx > uint32(len(b))/9 {
			return nil, io.ErrUnexpectedEOF
		}
		for j := uint32(0); j < nidx; j++ {
			var ix storage.IndexSpec
			if ix.Name, b, err = readString(b); err != nil {
				return nil, err
			}
			if ix.Column, b, err = readString(b); err != nil {
				return nil, err
			}
			if len(b) < 1 {
				return nil, io.ErrUnexpectedEOF
			}
			ix.Unique = b[0] != 0
			b = b[1:]
			td.Indexes = append(td.Indexes, ix)
		}
		nrows, rest3, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		b = rest3
		// Every row carries ncols values of at least one tag byte each.
		if ncols > 0 && nrows > uint32(len(b))/ncols {
			return nil, io.ErrUnexpectedEOF
		}
		for j := uint32(0); j < nrows; j++ {
			row := make(storage.Row, ncols)
			for k := uint32(0); k < ncols; k++ {
				if row[k], b, err = ReadValue(b); err != nil {
					return nil, err
				}
			}
			td.Rows = append(td.Rows, row)
		}
		d.Tables = append(d.Tables, td)
	}
	if len(b) > 0 {
		// Partial trailer (see EncodeSyncResp): holds closure + skipped
		// count. Absent on full deltas.
		nholds, rest, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if nholds > uint32(len(b))/8 {
			return nil, io.ErrUnexpectedEOF
		}
		d.Partial = true
		d.Holds = make([]int64, 0, nholds)
		for i := uint32(0); i < nholds; i++ {
			var k uint64
			k, b, _ = readUint64(b)
			d.Holds = append(d.Holds, int64(k))
		}
		skipped, _, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		d.Skipped = int(skipped)
	}
	return d, nil
}
