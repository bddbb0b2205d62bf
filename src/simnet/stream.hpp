// ByteStream: the layering interface between transports.  TCP exposes one,
// TLS consumes one and exposes another, HTTP/1.1 and HTTP/2 consume one.
// This is what lets the experiments swap DNS-over-TLS for DNS-over-HTTPS
// over the same simulated TCP.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "simnet/tcp.hpp"

namespace dohperf::simnet {

class ByteStream {
 public:
  struct Handlers {
    std::function<void()> on_open;  ///< stream ready for send()
    /// Received bytes, by reference: the reader may keep the slice (or a
    /// subslice), which keeps the storage below it alive, or copy what it
    /// needs and drop it.
    std::function<void(const BufferSlice&)> on_data;
    std::function<void()> on_close;  ///< closed (orderly or reset)
  };

  virtual ~ByteStream() = default;

  virtual void set_handlers(Handlers handlers) = 0;
  /// Send one logical write. The slice is referenced, not copied; a Bytes
  /// argument converts implicitly (materializing the shared buffer once).
  virtual void send(BufferSlice data) = 0;
  /// Send several slices as ONE logical write: framing/segmentation below
  /// must be identical to sending the concatenated bytes in one send().
  /// The default coalesces (copies); transports override for zero-copy.
  virtual void send_chain(std::span<const BufferSlice> chain);
  virtual void close() = 0;
  virtual bool is_open() const = 0;
};

/// Adapts a TcpConnection to the ByteStream interface.
class TcpByteStream final : public ByteStream {
 public:
  /// `connection` may be freshly connecting (client) or already established
  /// (server accept); on_open fires accordingly.
  explicit TcpByteStream(std::shared_ptr<TcpConnection> connection);
  ~TcpByteStream() override;

  void set_handlers(Handlers handlers) override;
  void send(BufferSlice data) override;
  void send_chain(std::span<const BufferSlice> chain) override;
  void close() override;
  bool is_open() const override;

  TcpConnection& tcp() noexcept { return *connection_; }
  const TcpConnection& tcp() const noexcept { return *connection_; }

 private:
  std::shared_ptr<TcpConnection> connection_;
  Handlers handlers_;
  bool open_reported_ = false;
  bool close_reported_ = false;
};

}  // namespace dohperf::simnet
