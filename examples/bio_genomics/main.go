// bio_genomics reproduces the Enformer/C-HER-style bio/health
// preparation: one-hot encode genomic tiles, anonymize clinical records to
// k-anonymity, fuse the modalities, write encrypted shards, then prove the
// privacy and security invariants hold end to end.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"strings"

	"repro/internal/anonymize"
	"repro/internal/bio"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	cohort, err := bio.Synthesize(bio.SynthConfig{Subjects: 50, SeqLen: 512, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cohort: %d subjects, %d bp sequences, clinical notes contain PHI: %t\n",
		len(cohort.Sequences), len(cohort.Sequences[0].Seq),
		anonymize.ContainsPHI(cohort.Clinical[0].Notes))

	// One-hot demo (the Enformer encoding).
	oh := bio.OneHot(cohort.Sequences[0].Seq[:8])
	fmt.Printf("one-hot of %q: %v...\n", cohort.Sequences[0].Seq[:8], oh[:8])

	encKey := bytes.Repeat([]byte{0x5A}, 32)
	sink := shard.NewMemSink()
	p, err := bio.NewPipeline(bio.DefaultConfig(encKey, []byte("example-pseudonym-secret-key")), sink)
	if err != nil {
		log.Fatal(err)
	}
	ds := bio.NewDataset("cohort", cohort.ToFASTA(), cohort.Clinical)
	snaps, err := p.Run(ds)
	if err != nil {
		log.Fatal(err)
	}
	prod := ds.Payload.(*bio.Product)
	fmt.Printf("\nanonymization audit: %d records, k=%d, %d suppressed, %d PHI redactions\n",
		prod.Audit.Records, prod.Audit.K, prod.Audit.Suppressed, prod.Audit.Redactions)
	fmt.Printf("fused samples: %d (features = 64 k-mers + GC + 3 clinical)\n", len(prod.Fused))
	fmt.Printf("final readiness: %s\n", snaps[len(snaps)-1].Assessment.Level)

	// Security proof: the sink holds only sealed shards; unsealing with
	// the right key and shard name recovers the payload the manifest
	// checksums.
	fmt.Println("\nsecure-shard check:")
	for _, name := range sink.Names() {
		if !strings.HasSuffix(name, bio.SealedSuffix) {
			log.Fatalf("plaintext shard leaked: %s", name)
		}
	}
	for _, info := range prod.Manifest.Shards {
		stored := info.Name + bio.SealedSuffix
		sealed, err := shard.ReadObject(sink, stored)
		if err != nil {
			log.Fatal(err)
		}
		plain, err := anonymize.DecryptShard(encKey, info.Name, sealed)
		if err != nil {
			log.Fatal(err)
		}
		if sum := sha256.Sum256(plain); hex.EncodeToString(sum[:]) != info.SHA256 {
			log.Fatalf("%s: unsealed payload does not match the manifest checksum", stored)
		}
		fmt.Printf("  %s: %d sealed bytes -> %d plaintext bytes OK\n", stored, len(sealed), len(plain))
		// Wrong key must fail.
		wrong := bytes.Repeat([]byte{0x00}, 32)
		if _, err := anonymize.DecryptShard(wrong, info.Name, sealed); err == nil {
			log.Fatal("decryption succeeded with the wrong key")
		}
	}
	fmt.Println("  wrong-key decryption rejected for every shard")

	// Privacy regression: no pseudonym maps back to a subject id, no PHI
	// in any retained note.
	for _, r := range prod.Anonymous {
		if strings.HasPrefix(r.Pseudonym, "subj-") || anonymize.ContainsPHI(r.Notes) {
			log.Fatalf("privacy violation in record %s", r.Pseudonym)
		}
	}
	fmt.Printf("\nprivacy invariants hold for all %d released records\n", len(prod.Anonymous))
	fmt.Println("\n" + p.Collector.Report())
}
