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
	var out []byte
	var nextErr error // set by the serial producer only
	piper.PipeThrottled(eng, k, func() (rawRecord, bool) {
		rec, done, err := recs.next()
		nextErr = err
		return rec, !done && err == nil
	}, func(it *piper.Iter, rec rawRecord) {
		it.Continue(1) // parallel: inflate + verify
		var raw []byte
		var uerr error
		if !rec.dup {
			raw, uerr = unpack(rec)
		}

		it.Wait(2) // serial: ordered assembly
		switch {
		case err != nil:
		case uerr != nil:
			err = uerr
		case rec.dup:
			out = append(out, out[rec.from:][:rec.rawLen]...)
		default:
			out = appendChunk(out, raw, hint)
		}
	})
	if err == nil {
		err = nextErr // every record before it was restored, as in Restore
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
