#include "tor/socks_server.h"

#include "net/socks.h"

namespace ptperf::tor {

TorSocksServer::TorSocksServer(std::shared_ptr<TorClient> client,
                               std::string service)
    : client_(std::move(client)), service_(std::move(service)) {}

void TorSocksServer::set_constraints(PathConstraints constraints) {
  constraints_ = constraints;
  new_identity();
}

void TorSocksServer::new_identity() {
  if (current_) current_->close();
  current_.reset();
}

void TorSocksServer::warm() {
  bool done = false;
  with_circuit(
      [&done](std::optional<TorCircuit>, std::string) { done = true; });
  client_->network().loop().run_until_done([&] { return done; });
}

void TorSocksServer::with_circuit(
    std::function<void(std::optional<TorCircuit>, std::string)> cb) {
  if (current_ && current_->alive()) {
    cb(*current_, "");
    return;
  }
  auto self = shared_from_this();
  client_->build_circuit(
      constraints_,
      [self, cb](std::optional<TorCircuit> circuit, std::string err) {
        if (circuit) self->current_ = *circuit;
        cb(std::move(circuit), std::move(err));
      });
}

void TorSocksServer::start() {
  auto self = shared_from_this();
  client_->network().listen(client_->host(), service_, [self](net::Pipe pipe) {
    self->serve_channel(net::wrap_pipe(std::move(pipe)));
  });
}

void TorSocksServer::serve_channel(net::ChannelPtr ch) {
  auto self = shared_from_this();
  // Phase 1: greeting.
  ch->set_receiver([self, ch](util::Buf wire) {
    if (!net::socks::decode_greeting(wire)) {
      ch->close();
      return;
    }
    ch->send(net::socks::encode_method_select(net::socks::kMethodNoAuth));

    // Phase 2: connect request.
    ch->set_receiver([self, ch](util::Buf wire2) {
      auto req = net::socks::decode_connect(wire2);
      if (!req) {
        ch->close();
        return;
      }
      std::string target = req->host + ":" + std::to_string(req->port);

      auto on_circuit = [self, ch, target](std::optional<TorCircuit> circuit,
                                           std::string err) {
        if (!circuit) {
          net::socks::ConnectReply rep;
          rep.reply = net::socks::Reply::kGeneralFailure;
          ch->send(net::socks::encode_reply(rep));
          ch->close();
          (void)err;
          return;
        }
        self->client_->open_stream(
            *circuit, target,
            [ch](std::shared_ptr<TorStream> stream, std::string serr) {
              if (!stream) {
                net::socks::ConnectReply rep;
                rep.reply = net::socks::Reply::kHostUnreachable;
                ch->send(net::socks::encode_reply(rep));
                ch->close();
                (void)serr;
                return;
              }
              net::socks::ConnectReply rep;
              rep.reply = net::socks::Reply::kSucceeded;
              ch->send(net::socks::encode_reply(rep));
              net::splice(ch, stream);
            });
      };

      self->with_circuit(on_circuit);
    });
  });
}

}  // namespace ptperf::tor
