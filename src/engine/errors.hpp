// Typed submission errors for the engine layer (DESIGN.md §11/§12).
//
// Engine::submit used to report every admission failure as a generic
// exception, which callers -- above all the tensor-op service
// (src/service/) -- could not tell apart from programming errors. The
// service maps these onto protocol statuses, so the distinction is part of
// the engine's contract now:
//
//   * QueueFull     -- the bounded job queue is at capacity and the caller
//                      asked not to block (Admission::kReject). RETRYABLE:
//                      the condition clears as soon as workers drain jobs.
//   * ShuttingDown  -- the engine is tearing down; no further jobs will be
//                      admitted. TERMINAL for this engine instance.
//
// core::InvalidOptions (and ContractViolation) remain reserved for genuinely
// malformed requests -- wrong shapes, sim-backend or sharded jobs through
// submit(), invalid partitionings -- where retrying the identical request
// can never succeed.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace ust::engine {

/// Base of the engine's typed admission/lifecycle errors; catch this to
/// handle "the engine could not take the job" distinctly from "the request
/// itself is broken".
class EngineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The bounded job queue is at capacity (EngineOptions::max_queued_jobs)
/// and the submission was made with Admission::kReject. Retryable by
/// construction: capacity frees as soon as a worker dequeues a job.
class QueueFull : public EngineError {
 public:
  explicit QueueFull(std::size_t capacity)
      : EngineError("Engine::submit: bounded job queue is full (capacity " +
                    std::to_string(capacity) + "); retry after jobs drain"),
        capacity_(capacity) {}

  /// The queue bound that was hit (EngineOptions::max_queued_jobs).
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
};

/// The engine is tearing down (its destructor has started); the job was not
/// admitted and never will be. Terminal for this engine instance.
class ShuttingDown : public EngineError {
 public:
  ShuttingDown() : EngineError("Engine::submit: engine is shutting down") {}
};

}  // namespace ust::engine
