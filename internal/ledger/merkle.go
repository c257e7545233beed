// Merkle tree over one batch of record hashes. Interior nodes are
// SHA-256(left || right); an unpaired node at any level is promoted
// unchanged, so the tree over n leaves is defined for every n >= 1 and
// a proof is the sibling path from leaf to root.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// merkleRoot folds leaf hashes up to the batch root.
func merkleRoot(leaves [][]byte) []byte {
	_, root := merkleProof(leaves, 0)
	return root
}

// proofStep is one sibling on the path to the root; left says the
// sibling hashes on the left of the running value.
type proofStep struct {
	hash []byte
	left bool
}

// merkleProof returns the sibling path for leaf idx and the root it
// folds up to. Levels where the running node is unpaired contribute no
// step (the node was promoted). Empty input returns the hash of
// nothing — callers never pass it, but a defined answer beats a panic
// in a verifier.
func merkleProof(leaves [][]byte, idx int) (path []proofStep, root []byte) {
	if len(leaves) == 0 {
		sum := sha256.Sum256(nil)
		return nil, sum[:]
	}
	level := append([][]byte(nil), leaves...)
	for ; len(level) > 1; idx /= 2 {
		if sib := idx ^ 1; sib < len(level) {
			path = append(path, proofStep{hash: level[sib], left: sib < idx})
		}
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i]) // odd node promoted
				break
			}
			sum := sha256.Sum256(append(append([]byte(nil), level[i]...), level[i+1]...))
			next = append(next, sum[:])
		}
		level = next
	}
	return path, level[0]
}

// ProofStep is one hop of a serialized inclusion proof.
type ProofStep struct {
	Hash string `json:"hash"`
	Left bool   `json:"left,omitempty"`
}

// Proof is a Merkle inclusion proof for one audit record, as served by
// GET /v1/audit/proof?seq=N: the record itself, its batch, the sibling
// path, and the batch root the path folds up to. A verifier checks (1)
// HashRecord(Record) == Record.Hash, (2) the path folds that hash to
// Root, and (3) Root matches the published root for Batch.
type Proof struct {
	Seq    uint64      `json:"seq"`
	Batch  int         `json:"batch"`
	Record Record      `json:"record"`
	Path   []ProofStep `json:"path"`
	Root   string      `json:"root"`
}

// Verify checks the proof end to end against its embedded root:
// record hash integrity plus the Merkle path. The caller still
// compares p.Root against an independently fetched published root —
// that comparison is what makes the verification offline-meaningful.
func (p *Proof) Verify() error {
	if HashRecord(p.Record) != p.Record.Hash {
		return fmt.Errorf("ledger: record %d hash does not match its content", p.Seq)
	}
	cur, err := hex.DecodeString(p.Record.Hash)
	if err != nil {
		return fmt.Errorf("ledger: record %d hash is not hex: %w", p.Seq, err)
	}
	for _, st := range p.Path {
		sib, err := hex.DecodeString(st.Hash)
		if err != nil {
			return fmt.Errorf("ledger: proof step hash is not hex: %w", err)
		}
		var sum [32]byte
		if st.Left {
			sum = sha256.Sum256(append(append([]byte(nil), sib...), cur...))
		} else {
			sum = sha256.Sum256(append(append([]byte(nil), cur...), sib...))
		}
		cur = sum[:]
	}
	root, err := hex.DecodeString(p.Root)
	if err != nil {
		return fmt.Errorf("ledger: proof root is not hex: %w", err)
	}
	if !bytes.Equal(cur, root) {
		return fmt.Errorf("ledger: proof for seq %d does not fold to its root", p.Seq)
	}
	return nil
}
