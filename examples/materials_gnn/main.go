// materials_gnn reproduces the HydraGNN/OMat24-style materials
// preparation: parse POSCAR structures, build periodic cutoff graphs,
// normalize descriptors against dataset statistics, and shard the train
// split as BP process groups marshalled by simulated parallel ranks —
// then export them as an ADIOS-style BP container and read it back the
// way a GNN trainer would.
package main

import (
	"fmt"
	"log"

	"repro/internal/formats/bp"
	"repro/internal/materials"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	structs, err := materials.Synthesize(materials.SynthConfig{
		Structures: 80, MinAtoms: 6, MaxAtoms: 20, ImbalanceRatio: 6, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	counts := materials.ClassCounts(structs)
	fmt.Printf("DFT-like archive: %d structures, class counts %v\n", len(structs), counts)

	poscars := make([]string, len(structs))
	for i, s := range structs {
		poscars[i] = s.ToPOSCAR()
	}
	sink := shard.NewMemSink()
	cfg := materials.Config{Cutoff: 4, Workers: 8, Ranks: 4, Seed: 17}
	p, err := materials.NewPipeline(cfg, sink)
	if err != nil {
		log.Fatal(err)
	}
	ds := materials.NewDataset("omat-demo", poscars)
	snaps, err := p.Run(ds)
	if err != nil {
		log.Fatal(err)
	}
	prod := ds.Payload.(*materials.Product)

	edges, nodes := 0, 0
	for _, g := range prod.Graphs {
		edges += g.NumEdges()
		nodes += g.NumNodes()
	}
	fmt.Printf("graphs: %d (avg %.1f nodes, %.1f edges)\n",
		len(prod.Graphs), float64(nodes)/float64(len(prod.Graphs)), float64(edges)/float64(len(prod.Graphs)))
	fmt.Printf("train split imbalance: %.1f:1 (stratified split preserves the archive's skew)\n", prod.Imbalance)
	fmt.Printf("final readiness: %s\n", snaps[len(snaps)-1].Assessment.Level)

	// Export the train split as a BP container and consume it like
	// HydraGNN's reader: gather energies across all process groups and
	// check extensivity.
	container, err := materials.ExportBP(prod)
	if err != nil {
		log.Fatal(err)
	}
	f, err := bp.Open(container)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBP container: %d bytes, %d process groups from %d ranks\n", len(container), len(f.PGs()), prod.Ranks)
	energies, err := f.ReadVar("energy")
	if err != nil {
		log.Fatal(err)
	}
	nodesVars, err := f.ReadVar("node_features")
	if err != nil {
		log.Fatal(err)
	}
	sumE, sumAtoms := 0.0, 0
	for i := range energies {
		sumE += energies[i].Data[0]
		sumAtoms += nodesVars[i].Shape[0]
	}
	fmt.Printf("train energies: %d graphs, mean per-atom energy %.3f eV\n",
		len(energies), sumE/float64(sumAtoms))
	fmt.Printf("durable shard set: %d shards, %d PG records (serving/replay artifact)\n",
		len(prod.Manifest.Shards), prod.Manifest.TotalRecords())
	fmt.Println("\n" + p.Collector.Report())
}
