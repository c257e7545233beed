package bio

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

func TestOneHot(t *testing.T) {
	got := OneHot("ACGT")
	want := []float64{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("onehot=%v", got)
		}
	}
}

func TestOneHotUnknownBase(t *testing.T) {
	got := OneHot("N")
	for _, v := range got {
		if v != 0 {
			t.Fatalf("N should be all-zero: %v", got)
		}
	}
	// Lowercase accepted.
	low := OneHot("a")
	if low[0] != 1 {
		t.Fatalf("lowercase: %v", low)
	}
}

func TestTile(t *testing.T) {
	tiles, err := Tile("ACGTACGTAC", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 2 || tiles[0] != "ACGT" || tiles[1] != "ACGT" {
		t.Fatalf("tiles=%v", tiles)
	}
	if _, err := Tile("ACGT", 0); err == nil {
		t.Fatal("want length error")
	}
	none, err := Tile("AC", 4)
	if err != nil || none != nil {
		t.Fatalf("short seq tiles=%v err=%v", none, err)
	}
}

func TestKmerCounts(t *testing.T) {
	// "AAAA": 3 overlapping 2-mers, all "AA" (index 0).
	counts, err := KmerCounts("AAAA", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 16 {
		t.Fatalf("dim=%d", len(counts))
	}
	if counts[0] != 1 {
		t.Fatalf("AA freq=%v", counts[0])
	}
	sum := 0.0
	for _, c := range counts {
		sum += c
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum=%v", sum)
	}
}

func TestKmerCountsSkipsN(t *testing.T) {
	counts, err := KmerCounts("ANA", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatalf("N-containing kmers must be skipped: %v", counts)
		}
	}
}

func TestKmerCountsErrors(t *testing.T) {
	if _, err := KmerCounts("ACGT", 0); err == nil {
		t.Fatal("want k error")
	}
	if _, err := KmerCounts("ACGT", 9); err == nil {
		t.Fatal("want k error")
	}
}

func TestGCContent(t *testing.T) {
	if got := GCContent("GGCC"); got != 1 {
		t.Fatalf("gc=%v", got)
	}
	if got := GCContent("AATT"); got != 0 {
		t.Fatalf("gc=%v", got)
	}
	if got := GCContent("ACGT"); got != 0.5 {
		t.Fatalf("gc=%v", got)
	}
	if got := GCContent(""); got != 0 {
		t.Fatalf("empty gc=%v", got)
	}
}

func TestSynthesizeCohort(t *testing.T) {
	c, err := Synthesize(SynthConfig{Subjects: 20, SeqLen: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sequences) != 20 || len(c.Clinical) != 20 {
		t.Fatalf("cohort sizes %d/%d", len(c.Sequences), len(c.Clinical))
	}
	// Expression correlates with GC content by construction.
	for _, s := range c.Sequences {
		if len(s.Seq) != 200 {
			t.Fatalf("seq len=%d", len(s.Seq))
		}
		want := 5 * GCContent(s.Seq)
		if math.Abs(s.Expression-want) > 1 {
			t.Fatalf("expression %v too far from %v", s.Expression, want)
		}
	}
	// Clinical notes intentionally contain PHI.
	if !anonymize.ContainsPHI(c.Clinical[0].Notes) {
		t.Fatal("synthetic notes should contain PHI for the privacy path to catch")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(SynthConfig{Subjects: 0, SeqLen: 10}); err == nil {
		t.Fatal("want subjects error")
	}
}

func TestFASTARoundTrip(t *testing.T) {
	c, _ := Synthesize(SynthConfig{Subjects: 5, SeqLen: 130, Seed: 3})
	fasta := c.ToFASTA()
	if !strings.HasPrefix(fasta, ">subj-0000") {
		t.Fatalf("fasta head: %q", fasta[:40])
	}
	seqs, err := ParseFASTA(fasta)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 5 {
		t.Fatalf("parsed %d", len(seqs))
	}
	for i, s := range seqs {
		if s.Seq != c.Sequences[i].Seq {
			t.Fatalf("seq %d mismatch", i)
		}
		if math.Abs(s.Expression-c.Sequences[i].Expression) > 1e-3 {
			t.Fatalf("expression %v vs %v", s.Expression, c.Sequences[i].Expression)
		}
	}
}

func TestParseFASTAErrors(t *testing.T) {
	if _, err := ParseFASTA("ACGT\n"); err == nil {
		t.Fatal("want header error")
	}
	if _, err := ParseFASTA(">x\nACGZ\n"); err == nil {
		t.Fatal("want base error")
	}
	if _, err := ParseFASTA(">\nACGT\n"); err == nil {
		t.Fatal("want empty-header error")
	}
	if _, err := ParseFASTA(">x expression=notanumber\nACGT\n"); err == nil {
		t.Fatal("want expression error")
	}
	empty, err := ParseFASTA("")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty parse: %v %v", empty, err)
	}
}

func testKeys() (enc, secret []byte) {
	return bytes.Repeat([]byte{7}, 32), []byte("pseudonym-secret-key-123456")
}

// TestPipelineEndToEnd runs the full Table 1 bio workflow and checks the
// privacy and security invariants.
func TestPipelineEndToEnd(t *testing.T) {
	c, err := Synthesize(SynthConfig{Subjects: 30, SeqLen: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	enc, secret := testKeys()
	sink := shard.NewMemSink()
	p, err := NewPipeline(DefaultConfig(enc, secret), sink)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("cohort", c.ToFASTA(), c.Clinical)
	snaps, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.VerifyMonotone(snaps); err != nil {
		t.Fatal(err)
	}
	final := snaps[len(snaps)-1].Assessment
	if final.Level != core.AIReady {
		t.Fatalf("level=%v gaps=%v", final.Level, final.Gaps)
	}
	prod := ds.Payload.(*Product)

	// Privacy invariants.
	if prod.Audit.K < 2 {
		t.Fatalf("k-anonymity=%d", prod.Audit.K)
	}
	for _, r := range prod.Anonymous {
		if strings.HasPrefix(r.Pseudonym, "subj-") {
			t.Fatal("identifier leaked into pseudonym")
		}
		if anonymize.ContainsPHI(r.Notes) {
			t.Fatal("PHI survived anonymization")
		}
	}
	if len(prod.Fused) == 0 || len(prod.Fused) > 30 {
		t.Fatalf("fused=%d", len(prod.Fused))
	}
	// Fused features = 4^3 kmers + GC + 3 clinical values.
	if got := len(prod.Fused[0].Features); got != 64+1+3 {
		t.Fatalf("feature dims=%d", got)
	}

	// Security invariants: the sink holds exactly the manifest's shards,
	// each sealed under its plaintext name; unsealed, they match the
	// manifest's checksums and hold the train split.
	names := sink.Names()
	if len(names) == 0 || len(names) != len(prod.Manifest.Shards) {
		t.Fatalf("sink holds %d objects, manifest %d shards", len(names), len(prod.Manifest.Shards))
	}
	for _, name := range names {
		if !strings.HasSuffix(name, SealedSuffix) {
			t.Fatalf("plaintext shard %q leaked", name)
		}
	}
	unsealed := shard.NewMemSink()
	for _, info := range prod.Manifest.Shards {
		sealed, err := shard.ReadObject(sink, info.Name+SealedSuffix)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := anonymize.DecryptShard(enc, info.Name, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(plain)) != info.StoredBytes {
			t.Fatalf("shard %s: %d plaintext bytes, manifest says %d", info.Name, len(plain), info.StoredBytes)
		}
		if _, err := anonymize.DecryptShard(bytes.Repeat([]byte{0}, 32), info.Name, sealed); err == nil {
			t.Fatalf("shard %s opened under the wrong key", info.Name)
		}
		if err := shard.WriteObject(unsealed, info.Name, plain); err != nil {
			t.Fatal(err)
		}
	}
	records := 0
	if err := shard.ReadAll(unsealed, prod.Manifest, func(_ string, rec []byte) error {
		s, err := loader.DecodeSample(rec)
		if err != nil {
			return err
		}
		if len(s.Features) != 64+1+3 {
			return fmt.Errorf("record %d: %d features", records, len(s.Features))
		}
		records++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records != len(prod.Split.Train) {
		t.Fatalf("unsealed %d records, train=%d", records, len(prod.Split.Train))
	}
}

func TestPipelineRefusesWeakConfig(t *testing.T) {
	sink := shard.NewMemSink()
	_, secret := testKeys()
	if _, err := NewPipeline(DefaultConfig([]byte("short"), secret), sink); err == nil {
		t.Fatal("want key-length error")
	}
	enc, _ := testKeys()
	if _, err := NewPipeline(DefaultConfig(enc, []byte("x")), sink); err == nil {
		t.Fatal("want secret error")
	}
	if _, err := NewPipeline(DefaultConfig(enc, secret), nil); err == nil {
		t.Fatal("want sink error")
	}
	bad := DefaultConfig(enc, secret)
	bad.TileLen = 0
	if _, err := NewPipeline(bad, sink); err == nil {
		t.Fatal("want config error")
	}
}

func TestPipelineEmptyFASTA(t *testing.T) {
	enc, secret := testKeys()
	p, err := NewPipeline(DefaultConfig(enc, secret), shard.NewMemSink())
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("empty", "", nil)
	if _, err := p.Run(ds); err == nil {
		t.Fatal("want empty error")
	}
}

// Property: one-hot output always has exactly one 1 per known base and
// row sums <= 1.
func TestOneHotProperty(t *testing.T) {
	f := func(raw []byte) bool {
		seq := make([]byte, len(raw))
		alphabet := "ACGTN"
		for i, b := range raw {
			seq[i] = alphabet[int(b)%len(alphabet)]
		}
		oh := OneHot(string(seq))
		if len(oh) != len(seq)*4 {
			return false
		}
		for i := 0; i < len(seq); i++ {
			sum := oh[i*4] + oh[i*4+1] + oh[i*4+2] + oh[i*4+3]
			if seq[i] == 'N' {
				if sum != 0 {
					return false
				}
			} else if sum != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: k-mer frequencies are a probability vector for ACGT-only
// sequences of length >= k.
func TestKmerProbabilityProperty(t *testing.T) {
	f := func(raw []byte, k8 uint8) bool {
		k := int(k8)%3 + 1
		if len(raw) < k {
			return true
		}
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = Bases[int(b)%4]
		}
		counts, err := KmerCounts(string(seq), k)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOneHot(b *testing.B) {
	c, _ := Synthesize(SynthConfig{Subjects: 1, SeqLen: 4096, Seed: 1})
	seq := c.Sequences[0].Seq
	b.SetBytes(int64(len(seq)))
	for i := 0; i < b.N; i++ {
		_ = OneHot(seq)
	}
}

func BenchmarkKmerCounts(b *testing.B) {
	c, _ := Synthesize(SynthConfig{Subjects: 1, SeqLen: 4096, Seed: 1})
	seq := c.Sequences[0].Seq
	b.SetBytes(int64(len(seq)))
	for i := 0; i < b.N; i++ {
		if _, err := KmerCounts(seq, 3); err != nil {
			b.Fatal(err)
		}
	}
}
