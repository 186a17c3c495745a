// Command dedup compresses and restores files with the dedup pipeline.
//
// Usage:
//
//	dedup -mode compress -in file -out file.pdar [-pipeline piper|pthreads|tbb|serial] [-p 4]
//	dedup -mode restore  -in file.pdar -out file
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"piper"
	"piper/internal/dedup"
)

func main() {
	var (
		mode     = flag.String("mode", "compress", "compress|restore")
		in       = flag.String("in", "", "input file")
		out      = flag.String("out", "", "output file")
		pipeline = flag.String("pipeline", "piper", "piper|pthreads|tbb|serial")
		p        = flag.Int("p", 4, "workers")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "dedup: -in and -out are required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*in)
	check(err)

	// The result is written only once it is whole, so a failed run leaves
	// no -out file behind.
	var result []byte
	switch *mode {
	case "compress":
		var buf bytes.Buffer
		switch *pipeline {
		case "serial":
			err = dedup.CompressSerial(data, &buf)
		case "piper":
			eng := piper.NewEngine(piper.Workers(*p))
			defer eng.Close()
			err = dedup.CompressPiper(eng, 4**p, data, &buf)
		case "pthreads":
			err = dedup.CompressBindStage(data, *p, 4**p, &buf)
		case "tbb":
			err = dedup.CompressTBB(data, *p, 4**p, &buf)
		default:
			fmt.Fprintf(os.Stderr, "dedup: unknown pipeline %q\n", *pipeline)
			os.Exit(2)
		}
		result = buf.Bytes()
	case "restore":
		if *pipeline == "piper" {
			eng := piper.NewEngine(piper.Workers(*p))
			defer eng.Close()
			result, err = dedup.RestorePiper(eng, 4**p, data)
		} else {
			result, err = dedup.Restore(data)
		}
	default:
		fmt.Fprintf(os.Stderr, "dedup: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	check(err)
	check(os.WriteFile(*out, result, 0o666))
}

// check exits 1 on err, printing it behind one "dedup:" (the dedup
// package's errors carry that prefix already; the os ones do not).
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedup:", strings.TrimPrefix(err.Error(), "dedup: "))
		os.Exit(1)
	}
}
