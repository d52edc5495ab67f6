package postlist

import (
	"errors"
	"fmt"

	"musuite/internal/wire"
)

// Posting lists compress extremely well as delta-encoded varints because
// doc IDs are sorted: gaps are small, and small numbers take one byte.
// §III-C notes the paper's posting lists "can be stored using different
// compression schemes" — this is the classic gap+varint member of that
// family, used on the leaf→mid-tier wire to shrink intersected lists.

// ErrCorruptPostings reports an undecodable compressed list.
var ErrCorruptPostings = errors.New("postlist: corrupt compressed postings")

// CompressIDs delta+varint encodes a sorted, duplicate-free ID list, the
// sparse ID set; unsorted input is an error.  The gap codec itself is wire's
// ascending-uint32 field, which HDSearch's leaf requests share.
func CompressIDs(ids []uint32) ([]byte, error) {
	out, bad := wire.AppendAscendingUint32s(nil, ids)
	if bad >= 0 {
		return nil, fmt.Errorf("postlist: CompressIDs input unsorted at %d (%d after %d)", bad, ids[bad], ids[bad-1])
	}
	return out, nil
}

// DecompressIDs reverses CompressIDs.
func DecompressIDs(b []byte) ([]uint32, error) {
	return DecompressIDsInto(nil, b)
}

// DecompressIDsInto reverses CompressIDs, appending the IDs to dst so
// hot-path callers can reuse capacity; a decode error returns dst unchanged.
func DecompressIDsInto(dst []uint32, b []byte) ([]uint32, error) {
	var d wire.Decoder
	d.Reset(b)
	dst = d.AscendingUint32sInto(dst)
	if d.Err() != nil {
		return dst, ErrCorruptPostings
	}
	return dst, nil
}
