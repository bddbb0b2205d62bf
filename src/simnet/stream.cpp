#include "simnet/stream.hpp"

namespace dohperf::simnet {

TcpByteStream::TcpByteStream(std::shared_ptr<TcpConnection> connection)
    : connection_(std::move(connection)) {}

TcpByteStream::~TcpByteStream() {
  // Detach callbacks: the TcpConnection may outlive this adapter inside the
  // host's connection table while the FIN exchange completes.
  if (connection_) connection_->set_callbacks({});
}

void TcpByteStream::set_handlers(Handlers handlers) {
  handlers_ = std::move(handlers);
  TcpCallbacks cbs;
  cbs.on_connected = [this]() {
    if (!open_reported_) {
      open_reported_ = true;
      if (handlers_.on_open) handlers_.on_open();
    }
  };
  cbs.on_data = [this](const BufferSlice& data) {
    if (handlers_.on_data) handlers_.on_data(data);
  };
  const auto report_close = [this]() {
    if (!close_reported_) {
      close_reported_ = true;
      if (handlers_.on_close) handlers_.on_close();
    }
  };
  // Half-close from the peer ends the byte stream for our purposes.
  cbs.on_remote_closed = report_close;
  cbs.on_closed = report_close;
  cbs.on_reset = report_close;
  connection_->set_callbacks(std::move(cbs));
  // Server-accepted connections are already established.
  if (connection_->established() && !open_reported_) {
    open_reported_ = true;
    if (handlers_.on_open) handlers_.on_open();
  }
}

void ByteStream::send_chain(std::span<const BufferSlice> chain) {
  // Generic fallback: flatten to one buffer so the logical-write contract
  // holds for any transport. Transports that can do better override this.
  send(BufferSlice{coalesce(chain)});
}

void TcpByteStream::send(BufferSlice data) {
  connection_->send(std::move(data));
}

void TcpByteStream::send_chain(std::span<const BufferSlice> chain) {
  connection_->send_chain(chain);
}

void TcpByteStream::close() {
  if (connection_->state() != TcpState::kClosed) connection_->close();
}

bool TcpByteStream::is_open() const {
  return connection_->established() ||
         connection_->state() == TcpState::kCloseWait;
}

}  // namespace dohperf::simnet
