package dedup

import "piper"

// RestorePiper restores an archive with a pipeline: a serial stage feeds
// records, a parallel stage inflates and verifies unique chunks (the
// compute-heavy part), and a serial in-order stage resolves duplicate
// references against earlier chunks and assembles the output. It parses
// and unpacks records exactly as Restore does.
func RestorePiper(eng *piper.Engine, k int, archive []byte) ([]byte, error) {
	recs, hint, err := parseRecords(archive)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, hint)
	i := 0
	piper.PipeThrottled(eng, k, func() (*rawRecord, bool) {
		if i >= len(recs) {
			return nil, false
		}
		rec := recs[i]
		i++
		return rec, true
	}, func(it *piper.Iter, rec *rawRecord) {
		it.Continue(1) // parallel: inflate + verify
		if rec.ref == nil {
			rec.raw, rec.err = unpack(rec)
		}

		it.Wait(2) // serial: ordered assembly
		switch {
		case err != nil:
		case rec.err != nil:
			err = rec.err
		case rec.ref != nil:
			out = append(out, rec.ref.raw...)
		default:
			out = append(out, rec.raw...)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
