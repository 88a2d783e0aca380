// Package api defines the versioned /v1 HTTP surface shared by the
// serving replica (internal/serve), the fleet gateway (internal/gateway),
// and the extraction attacker's client (internal/extract). It is the one
// place the wire schema lives: both servers encode from these types, the
// attacker decodes into them, and the golden tests in both server packages
// pin the bytes. Both servers also stand on its Front: one route table,
// root handler, /tracez and /metricsz, and one predict lifecycle.
//
// # POST /v1/predict
//
// Request:
//
//	{
//	  "api": "v1",            // optional; any other value is rejected
//	  "model": "prod",        // registry name to serve from (required)
//	  "input": [ ... ],       // one flattened C*H*W sample, XOR
//	  "inputs": [[ ... ]],    // a batch of samples
//	  "omit_scores": true     // optional: answer with classes only
//	}
//
// Response (200):
//
//	{
//	  "api": "v1",
//	  "model": "prod",
//	  "digest": "<hex sha-256 of the released file>",
//	  "mode": "top1",         // present only when a serving policy
//	                          // restricted the response ("top1"|"label")
//	  "predictions": [
//	    {
//	      "class": 3,          // argmax class — always present
//	      "probs": [ ... ],    // softmax; absent under label-only/top1
//	                           // policies and omit_scores requests
//	      "logits": [ ... ],   // raw scores; absent likewise
//	      "top_prob": 0.98     // top-1 probability; "top1" policy only
//	    }
//	  ]
//	}
//
// # POST /v1/models/{name}:{op}
//
// Model operations share one path convention: the final colon in the path
// value splits the model name from the operation. The replica serves
// :audit, :load, and :policy; the gateway serves :reload and :policy
// (fanned out to every eligible replica). Unknown operations answer 404
// with the unified error envelope listing the ops that exist.
//
// # Errors
//
// Every 4xx/5xx from either server carries the same JSON envelope:
//
//	{"error": "<message>", "code": "<machine code>", "trace_id": "<32hex>"}
//
// trace_id is present whenever the failing request was traced (predict on
// both tiers); other endpoints omit it. The code vocabulary is the Code*
// constants below.
package api

// Version is the current API version; requests may pin it via the "api"
// field and servers echo it on every predict response.
const Version = "v1"

// MaxBodyBytes bounds every /v1 request body on both servers (8 MiB is
// ~1000 CIFAR-sized batch samples — far past any sane request). A larger
// body answers 400 with CodeBadRequest.
const MaxBodyBytes = 8 << 20

// PredictRequest is the body of POST /v1/predict on both the replica and
// the gateway. Exactly one of Input/Inputs must be set.
type PredictRequest struct {
	// API optionally pins the schema version; "" and Version are
	// accepted, anything else is rejected with CodeUnsupportedAPI.
	API string `json:"api,omitempty"`
	// Model names the registry entry to serve from.
	Model string `json:"model"`
	// Input is a single flattened C*H*W sample; Inputs is a batch.
	Input  []float64   `json:"input,omitempty"`
	Inputs [][]float64 `json:"inputs,omitempty"`
	// OmitScores asks for label-only answers (classes without probs or
	// logits) regardless of the model's serving policy — the same shape a
	// label-only policy produces, so clients that opt in are already
	// schema-valid when a defense is later enabled.
	OmitScores bool `json:"omit_scores,omitempty"`
}

// Prediction is the serving result for one input sample. Class is always
// present; the score fields depend on the model's serving policy and the
// request's omit_scores flag (see the package doc).
type Prediction struct {
	// Class is the argmax class.
	Class int `json:"class"`
	// Probs is the softmax distribution over classes (full responses
	// only).
	Probs []float64 `json:"probs,omitempty"`
	// Logits are the raw pre-softmax scores; bit-identical to a serial
	// single-sample forward pass of the same input (full responses only).
	Logits []float64 `json:"logits,omitempty"`
	// TopProb is the top-1 probability, reported only under a "top1"
	// policy (rounded when the policy also rounds).
	TopProb float64 `json:"top_prob,omitempty"`
}

// PredictResponse is the 200 body of POST /v1/predict.
type PredictResponse struct {
	// API echoes the schema version ("v1").
	API string `json:"api"`
	// Model and Digest identify what answered: the registry name and the
	// hex SHA-256 of the released file it was loaded from.
	Model  string `json:"model"`
	Digest string `json:"digest"`
	// Mode reports the policy restriction applied to this response
	// ("top1" or "label"); empty for full responses.
	Mode string `json:"mode,omitempty"`
	// Predictions holds one entry per input sample, in request order.
	Predictions []Prediction `json:"predictions"`
}
