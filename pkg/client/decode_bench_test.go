package client

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/shard"
	"repro/internal/wire"
)

// benchLineRecords is the batch size of the benchmark's lines.
const benchLineRecords = 32

// benchSpec is the benchmark module's scale-1 spec for a domain (seed
// 1), its values written out here so this benchmark does not move with
// that module.
func benchSpec(d core.Domain) wire.Spec {
	s := wire.Spec{Domain: d, Seed: 1}
	switch d {
	case core.Climate:
		s.Months, s.Lat, s.Lon = 600, 32, 64
	case core.Fusion:
		s.Shots = 256
	case core.BioHealth:
		s.Subjects, s.SeqLen = 2000, 2048
	case core.Materials:
		s.Structures = 5000
	}
	return s
}

// servedLines runs one job of p in memory and returns every record it
// serves as NDJSON lines of benchLineRecords records (the last one may
// be shorter), built as the server builds them from the shards'
// sidecars, a line running on into the next shard.
func servedLines(b *testing.B, p domain.Plugin, spec wire.Spec) (lines [][]byte, records int) {
	b.Helper()
	store := shard.NewMemSink()
	run, err := p.Build(spec, store)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := run.Pipeline.Run(run.Dataset); err != nil {
		b.Fatal(err)
	}
	m, err := p.Manifest(run.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := domain.BuildShardSidecars(p, store, m, run.Key); err != nil {
		b.Fatal(err)
	}
	open := p.Opener(store, run.Key)
	var (
		kind string
		rs   []domain.LineRange
		n    int // records in rs
	)
	flush := func() {
		line := bytes.NewBuffer(domain.AppendLineHeader(nil, wire.BatchHeader{Batch: len(lines), Cursor: "0:0", Kind: kind}))
		if err := domain.WriteLineColumns(line, rs); err != nil {
			b.Fatal(err)
		}
		lines = append(lines, bytes.TrimSuffix(line.Bytes(), []byte("\n")))
		records += n
		rs, n = rs[:0], 0
	}
	for _, info := range m.Shards {
		raw, err := shard.ReadObject(open, domain.SidecarName(info.Name))
		if err != nil {
			b.Fatal(err)
		}
		sc, err := domain.ParseSidecar(raw)
		if err != nil {
			b.Fatal(err)
		}
		lf, err := sc.Lines()
		if err != nil {
			b.Fatal(err)
		}
		kind = sc.Kind()
		for a := 0; a < lf.Count(); {
			z := min(lf.Count(), a+benchLineRecords-n)
			rs = append(rs, domain.LineRange{F: lf, A: a, B: z})
			n += z - a
			a = z
			if n == benchLineRecords {
				flush()
			}
		}
	}
	if n > 0 {
		flush()
	}
	return lines, records
}

// BenchmarkDecodeBatchLine decodes and validates every line one job of
// each domain serves at the benchmark module's scale-1 spec, as
// Stream.Next does for an NDJSON stream: the SDK's number parsing,
// measured without the server or the connection.
func BenchmarkDecodeBatchLine(b *testing.B) {
	for _, p := range domain.Plugins() {
		lines, records := servedLines(b, p, benchSpec(p.Domain))
		var size int64
		for _, l := range lines {
			size += int64(len(l))
		}
		b.Run(string(p.Domain), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			var d lineDecoder
			var w BatchWire
			for b.Loop() {
				for _, l := range lines {
					if err := d.decode(l, &w); err != nil {
						b.Fatal(err)
					}
					if err := w.Validate(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
		})
	}
}
