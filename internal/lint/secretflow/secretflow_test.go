package secretflow_test

import (
	"testing"

	"idgka/internal/lint/analysistest"
	"idgka/internal/lint/secretflow"
)

func TestSecretFlow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), secretflow.Analyzer, "a")
}

// TestInterprocedural covers the cross-package flow: secret declared in
// leak/helper, leaked from leak/svc, sink inside the helper's body.
func TestInterprocedural(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), secretflow.Analyzer, "leak/...")
}

// TestEngineEdgeCases covers recursion, mutual recursion, closures,
// method values, and interface dispatch.
func TestEngineEdgeCases(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), secretflow.Analyzer, "edge")
}

// TestScalarTypeRoot covers the secret exponent type: a mathx.Scalar in
// a local reaching fmt.Errorf, BigVarTime's result reaching a sink, and
// the redacting Format, which is neither reported nor waived.
func TestScalarTypeRoot(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), secretflow.Analyzer, "scalar", "idgka/internal/mathx")
}

// TestElemFieldRoot covers a marked mathx.Elem field: a struct whose only
// secret is such a field, formatted whole, is reported, while a struct
// holding an Elem in an unmarked field is not.
func TestElemFieldRoot(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), secretflow.Analyzer, "idgka/internal/engine", "idgka/internal/mathx")
}
